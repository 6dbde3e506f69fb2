package core

import (
	"fmt"

	"beltway/internal/heap"
)

// The reference model of the trace kernel: forward, advanceScan and
// scanObject as they were before the slab-resident primitives — every
// access a Word/SetWord/Header/CopyBytes/SetForwarding on an address,
// translated again each time. UseWordKernel installs it behind the
// Heap.refKernel seam so kernel_test.go can run the two kernels over the
// same object graphs and compare heap images, counters and clocks.

// UseWordKernel makes h trace with the word-at-a-time reference kernel.
func (h *Heap) UseWordKernel() {
	h.refKernel = &refKernel{
		forward:     h.wordForward,
		advanceScan: h.wordAdvanceScan,
		scanObject: func(obj heap.Addr, st *gcState) error {
			_, err := h.wordScanObject(obj, st)
			return err
		},
	}
}

func (h *Heap) wordForward(a heap.Addr, st *gcState, ctx *Increment) (heap.Addr, error) {
	if h.space.Forwarded(a) {
		return h.space.Forwarding(a), nil
	}
	src := h.incrOf[h.space.FrameOf(a)]
	if src == nil || !src.condemned {
		panic(fmt.Sprintf("core: forward of non-condemned object at %v", a))
	}
	if h.mr.active && h.mrMark(a, h.space.SizeOf(a)) {
		return a, nil
	}
	size := h.space.SizeOf(a)
	if h.cfg.MOS && src.belt == h.mosBelt() {
		st.targets[src.belt] = h.mosDestination(src, ctx, st)
	}
	dst, err := h.gcBump(src.belt, size, st)
	if err != nil {
		return heap.Nil, err
	}
	h.space.CopyBytes(a, dst, size)
	h.space.SetForwarding(a, dst)
	c := &h.clock.Counters
	c.ObjectsCopied++
	c.BytesCopied += uint64(size)
	h.clock.Advance(h.cfg.Costs.CopyByte * float64(size))
	if h.hooks.Moved != nil {
		h.hooks.Moved(a, dst)
	}
	if h.mr.active && h.mrFrame(h.space.FrameOf(dst)) != nil {
		h.mr.queue = append(h.mr.queue, dst)
	}
	return dst, nil
}

func (h *Heap) wordAdvanceScan(idx int, st *gcState) (bool, error) {
	advanced := false
	for {
		s := &st.scans[idx]
		in := s.in
		if len(in.frames) == 0 {
			return advanced, nil
		}
		if s.addr == heap.Nil {
			s.fi = 0
			s.addr = h.space.FrameBase(in.frames[0])
		}
		f := in.frames[s.fi]
		if obj := s.addr; obj < h.fill[f] {
			size, err := h.wordScanObject(obj, st)
			if err != nil {
				return advanced, err
			}
			s = &st.scans[idx] // st.scans may have grown
			s.addr = obj + heap.Addr(size)
			advanced = true
			continue
		}
		if s.fi < len(in.frames)-1 {
			s.fi++
			s.addr = h.space.FrameBase(in.frames[s.fi])
			continue
		}
		return advanced, nil
	}
}

func (h *Heap) wordScanObject(obj heap.Addr, st *gcState) (int, error) {
	c := &h.clock.Counters
	t, length := h.space.Header(obj)
	n := t.NumRefs(length)
	slotAddr := obj + heap.HeaderBytes
	for i := 0; i < n; i++ {
		c.SlotsScanned++
		h.clock.Advance(h.cfg.Costs.ScanSlot)
		val := heap.Addr(h.space.Word(slotAddr))
		if val != heap.Nil {
			if h.mrStale(val) {
				h.space.SetWord(slotAddr, uint32(heap.Nil))
				slotAddr += heap.WordBytes
				continue
			}
			if h.frameCondemned(h.space.FrameOf(val)) {
				ctx := h.incrOf[h.space.FrameOf(obj)]
				nv, err := h.wordForward(val, st, ctx)
				if err != nil {
					return 0, err
				}
				h.space.SetWord(slotAddr, uint32(nv))
				val = nv
			} else {
				h.markLOS(val)
			}
			h.rescanSlot(slotAddr, val)
		}
		slotAddr += heap.WordBytes
	}
	return t.Size(length), nil
}
