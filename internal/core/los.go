package core

import (
	"fmt"

	"beltway/internal/heap"
)

// Large object space (LOS). The paper's GCTk had none ("GCTk currently
// does not yet implement a large object space", §4.1), which forced
// large arrays to be chunked; this extension provides one, in the style
// the paper's Related Work cites [Hicks et al.]:
//
//   - objects larger than Config.LOSThresholdBytes are allocated in
//     dedicated spans of contiguous frames and are NEVER moved;
//
//   - LOS frames carry the maximal collection-order stamp (like the
//     boot image), so the frame barrier remembers LOS-to-heap pointers;
//     boundary-barrier configurations scan the LOS alongside the boot
//     image instead;
//
//   - LOS objects are reclaimed by mark-sweep piggybacked on full
//     collections (every increment condemned): the trace marks LOS
//     objects it reaches, marked LOS objects' own references are traced
//     (keeping their heap referents alive and marking LOS-to-LOS edges),
//     and unmarked objects are swept. No barrier remembers a pointer from
//     the boot image to a large object (equal stamps), so such a
//     collection scans the boot image whatever the barrier. Between full
//     collections dead LOS objects are retained — the same completeness
//     trade the paper's incremental configurations make.
type losObject struct {
	addr   heap.Addr
	frames int // span length
	size   int // object size in bytes
	marked bool
}

type losState struct {
	objects []*losObject
	byFrame map[heap.Frame]*losObject
	bytes   int
	// mark queue for the current full collection
	queue    []*losObject
	sweeping bool
}

// losThreshold returns the size above which objects go to the LOS
// (0 disables the LOS entirely).
func (h *Heap) losThreshold() int { return h.cfg.LOSThresholdBytes }

// allocLOS allocates a large object in its own frame span.
func (h *Heap) allocLOS(t *heap.TypeDesc, length, size int) (heap.Addr, error) {
	h.chargeAlloc(size)
	h.clock.Counters.LOSBytesAllocated += uint64(size)

	nFrames := (size + h.cfg.FrameBytes - 1) / h.cfg.FrameBytes
	a, ok, err := h.allocCollecting(size, func() (heap.Addr, bool) {
		return h.tryAllocLOS(t, length, size, nFrames)
	})
	if err != nil {
		return heap.Nil, err
	}
	if !ok {
		return heap.Nil, h.oomError(size,
			fmt.Sprintf("%s: large object of %d frames found no space", h.cfg.Name, nFrames))
	}
	return a, nil
}

// tryAllocLOS maps and formats a large-object span without collecting,
// reporting false when the budget refuses.
func (h *Heap) tryAllocLOS(t *heap.TypeDesc, length, size, nFrames int) (heap.Addr, bool) {
	if h.freeBudgetBytes() < nFrames*h.cfg.FrameBytes {
		return heap.Nil, false
	}
	f := h.space.MapSpan(nFrames)
	h.closeWindow()
	last := f + heap.Frame(nFrames-1)
	h.ensureFrameMeta(last)
	obj := &losObject{addr: h.space.FrameBase(f), frames: nFrames, size: size}
	if h.los.byFrame == nil {
		h.los.byFrame = make(map[heap.Frame]*losObject)
	}
	for i := 0; i < nFrames; i++ {
		fr := f + heap.Frame(i)
		h.stamp[fr] = immortalStamp
		h.immortal[fr] = true // boundary-barrier discipline: scanned, not remembered
		h.fill[fr] = h.space.FrameLimit(fr)
		h.los.byFrame[fr] = obj
	}
	// Only the first frame holds (the start of) the object; cap
	// its fill so object walks stop at the object's end.
	h.fill[f] = obj.addr + heap.Addr(size)
	h.los.objects = append(h.los.objects, obj)
	h.los.bytes += size
	h.heapFrames += nFrames
	h.clock.Advance(float64(nFrames) * h.cfg.Costs.FrameOp)
	h.serial++
	h.space.Format(obj.addr, t, length, h.serial)
	if !h.inGC {
		h.recomputeReserve()
	}
	return obj.addr, true
}

// markLOS marks the large object containing a, queueing it for scanning
// (its references keep heap objects and other LOS objects alive).
// No-op outside a sweeping (full) collection.
func (h *Heap) markLOS(a heap.Addr) {
	if !h.los.sweeping {
		return
	}
	obj := h.los.byFrame[h.space.FrameOf(a)]
	if obj == nil || obj.marked {
		return
	}
	obj.marked = true
	h.los.queue = append(h.los.queue, obj)
}

// scanLarge applies the slot rule to the reference slots of large object
// lo, one run per frame it spans. The holder is no increment, so ctx is
// nil.
func (h *Heap) scanLarge(lo *losObject, fresh, charge bool, st *gcState) error {
	slotAddr := lo.addr + heap.HeaderBytes
	for n := h.space.NumRefs(lo.addr); n > 0; {
		slots := h.space.SlotRun(slotAddr, n)
		if err := h.scanSlots(slotAddr, slots, nil, fresh, charge, st); err != nil {
			return err
		}
		n -= len(slots)
		slotAddr += heap.Addr(len(slots)) * heap.WordBytes
	}
	return nil
}

// drainLOSQueue scans newly marked large objects, forwarding condemned
// referents and marking LOS-to-LOS edges. Returns whether it advanced.
func (h *Heap) drainLOSQueue(st *gcState) (bool, error) {
	advanced := false
	for len(h.los.queue) > 0 {
		obj := h.los.queue[len(h.los.queue)-1]
		h.los.queue = h.los.queue[:len(h.los.queue)-1]
		advanced = true
		if err := h.scanLarge(obj, false, true, st); err != nil {
			return advanced, err
		}
	}
	return advanced, nil
}

// sweepLOS frees unmarked large objects and resets marks.
func (h *Heap) sweepLOS() {
	if !h.los.sweeping {
		return
	}
	kept := h.los.objects[:0]
	for _, obj := range h.los.objects {
		if obj.marked {
			obj.marked = false
			kept = append(kept, obj)
			continue
		}
		f := h.space.FrameOf(obj.addr)
		for fr := f; fr < f+heap.Frame(obj.frames); fr++ {
			delete(h.los.byFrame, fr)
			h.releaseFrame(fr)
		}
		h.los.bytes -= obj.size
		h.clock.Counters.LOSBytesSwept += uint64(obj.size)
	}
	h.los.objects = kept
	h.los.sweeping = false
}

// LOSBytes returns the current large-object-space occupancy.
func (h *Heap) LOSBytes() int { return h.los.bytes }

// LOSObjects returns the number of live-or-unswept large objects.
func (h *Heap) LOSObjects() int { return len(h.los.objects) }
