package core

import "beltway/internal/heap"

// ForEachObject implements gc.Collector: it visits every object on every
// belt (oldest increment first) and then the boot image. Used by the
// validation oracle and by heap-statistics tooling; never on the mutator
// fast path.
func (h *Heap) ForEachObject(fn func(heap.Addr) bool) {
	stop := false
	visitFrame := func(f heap.Frame) {
		if stop {
			return
		}
		base := h.space.FrameBase(f)
		if fs := h.mrFrame(f); fs != nil {
			// Mark-region frames have holes between live runs; walk the
			// object-start bitmap instead of a linear header walk.
			fs.ForEachObject(func(off int) bool {
				if !fn(base + heap.Addr(off)) {
					stop = true
					return false
				}
				return true
			})
			return
		}
		limit := h.fill[f]
		h.space.WalkObjects(base, limit, func(obj heap.Addr) bool {
			if !fn(obj) {
				stop = true
				return false
			}
			return true
		})
	}
	for _, b := range h.belts {
		for _, in := range b.incrs {
			for _, f := range in.frames {
				visitFrame(f)
			}
		}
	}
	for _, f := range h.boot.frames {
		visitFrame(f)
	}
}
