package core

import (
	"fmt"

	"beltway/internal/heap"
)

// The reference model of mutator allocation: Alloc, tryAlloc,
// allocNewIncrement, bump and chargePaging as they were before the
// allocation window — every allocation charged, then walked through the
// whole decision tree, the retry bound summed before the first try —
// kept word for word but for the ref prefix on their names. They are not
// behind a seam in the production path: RefAlloc drives a second heap,
// which alloc_test.go feeds the same operations as a heap allocating
// through the window and compares with it after every one. The window
// never opens on a heap that allocates only through RefAlloc.

// RefAlloc is Alloc as it was before the allocation window.
func (h *Heap) RefAlloc(t *heap.TypeDesc, length int) (heap.Addr, error) {
	size := t.Size(length)
	if th := h.losThreshold(); th > 0 && size > th {
		return h.allocLOS(t, length, size)
	}
	if size > h.cfg.FrameBytes {
		return heap.Nil, fmt.Errorf("core: object of %d bytes exceeds frame size %d (enable the LOS via LOSThresholdBytes)", size, h.cfg.FrameBytes)
	}
	c := &h.clock.Counters
	c.ObjectsAllocated++
	c.BytesAllocated += uint64(size)
	// AllocByte covers zeroing and header init; BarrierFast models the
	// TIB-initialization store every Jikes allocation performs (§3.3.2).
	h.clock.Advance(h.cfg.Costs.AllocByte*float64(size) + h.cfg.Costs.BarrierFast)
	if fh := h.cfg.Faults; fh != nil && fh.AllocCost != nil {
		if x := fh.AllocCost(); x > 0 {
			// Injected cost inflation (a slow-allocation fault). Cost
			// only: the clock is outside the oracle's semantic state.
			h.clock.Advance(h.cfg.Costs.AllocByte * float64(size) * x)
		}
	}
	h.refChargePaging(size)

	// The remset trigger preempts collections even before the heap
	// fills. Polling is throttled: the precise per-increment count walks
	// the remset table, so it runs at most once per 64 allocations.
	if h.cfg.RemsetThreshold > 0 {
		h.remsetPoll++
		if h.remsetPoll >= 64 {
			h.remsetPoll = 0
			if _, err := h.pollRemsetTrigger(); err != nil {
				return heap.Nil, err
			}
		}
	}

	// A tight heap may need several incremental collections (nursery,
	// then belt-1 increments in FIFO order, then the top belt) before a
	// frame frees, so the retry bound scales with the number of live
	// increments.
	maxAttempts := 4 + 2*len(h.belts)
	for _, b := range h.belts {
		maxAttempts += b.Len()
	}
	for attempt := 0; ; attempt++ {
		if a, ok := h.refTryAlloc(size); ok {
			h.serial++
			h.space.Format(a, t, length, h.serial)
			return a, nil
		}
		if attempt >= maxAttempts {
			break
		}
		if err := h.collectForAlloc(); err != nil {
			return heap.Nil, err
		}
	}
	if h.cfg.Degrade {
		a, ok, err := h.rescueAlloc(size, func() (heap.Addr, bool) { return h.refTryAlloc(size) })
		if err != nil {
			return heap.Nil, err
		}
		if ok {
			h.serial++
			h.space.Format(a, t, length, h.serial)
			return a, nil
		}
	}
	return heap.Nil, h.oomError(size,
		fmt.Sprintf("%s: no progress after repeated collections", h.cfg.Name))
}

func (h *Heap) refChargePaging(bytes int) {
	pm := h.cfg.PhysMemBytes
	if pm <= 0 || h.cfg.Costs.PageByte == 0 {
		return
	}
	over := h.FootprintBytes() - pm
	if over <= 0 {
		return
	}
	h.clock.Counters.PageFaultBytes += uint64(bytes)
	h.clock.Advance(h.cfg.Costs.PageByte * float64(bytes) * float64(over) / float64(pm))
}

func (h *Heap) refTryAlloc(size int) (heap.Addr, bool) {
	belt := h.belts[h.allocBelt]
	in := belt.Youngest()

	// Time-to-die trigger (§3.3.3): within TTDBytes of heap-full, open a
	// fresh nursery increment so the youngest objects escape the next
	// collection.
	if h.cfg.TTDBytes > 0 && in != nil && !in.condemned &&
		h.freeBudgetFor(h.allocBelt) < h.cfg.TTDBytes && belt.Len() == 1 {
		if a, ok := h.refAllocNewIncrement(belt, size, true); ok {
			return a, true
		}
		return heap.Nil, false
	}

	if in != nil && !in.condemned {
		if in.cursor != heap.Nil && in.cursor+heap.Addr(size) <= in.limit {
			return h.refBump(in, size), true
		}
		// A mark-region belt hunts swept line runs across all of its
		// increments before growing the mapped footprint.
		if h.mr.active {
			if a, ok := h.mrRefillBelt(h.allocBelt, size); ok {
				return a, true
			}
		}
		// Current frame exhausted (or no frame yet): extend the increment.
		if !in.atCapacity() && h.freeBudgetFor(h.allocBelt) >= h.cfg.FrameBytes {
			if !h.addFrame(in) {
				return heap.Nil, false // injected map failure: treat as heap-full
			}
			return h.refBump(in, size), true
		}
		if in.atCapacity() {
			// Nursery trigger territory: the increment is at its size
			// bound. Open a sibling increment if the belt allows more.
			if a, ok := h.refAllocNewIncrement(belt, size, false); ok {
				return a, true
			}
			return heap.Nil, false
		}
		return heap.Nil, false // heap full
	}
	if a, ok := h.refAllocNewIncrement(belt, size, false); ok {
		return a, true
	}
	return heap.Nil, false
}

func (h *Heap) refAllocNewIncrement(belt *Belt, size int, bypassMax bool) (heap.Addr, bool) {
	if !bypassMax && belt.spec.MaxIncrements > 0 && belt.Len() >= belt.spec.MaxIncrements {
		return heap.Nil, false
	}
	if h.freeBudgetFor(h.allocBelt) < h.cfg.FrameBytes {
		return heap.Nil, false
	}
	in := h.newIncrement(belt)
	if !h.addFrame(in) {
		// Injected map failure: roll the frameless increment back so the
		// belt never holds an empty increment (seq gaps are fine).
		belt.remove(in)
		return heap.Nil, false
	}
	return h.refBump(in, size), true
}

func (h *Heap) refBump(in *Increment, size int) heap.Addr {
	a := in.cursor
	in.cursor += heap.Addr(size)
	f := h.space.FrameOf(a)
	h.fill[f] = in.cursor
	if fs := h.mrFrame(f); fs != nil {
		// Mark-region occupancy is line-granular at all times: the
		// increment accounts whole lines as they first become used.
		newLines := fs.NoteAlloc(int(a-h.space.FrameBase(f)), size)
		in.bytes += newLines * h.mr.geo.LineBytes
	} else {
		in.bytes += size
	}
	return a
}

// What alloc_test.go needs to see of a heap besides its exported state.

// WindowOpen reports whether the allocation window is open.
func (h *Heap) WindowOpen() bool { return h.win != nil }

// AllocTrail is what an allocation leaves behind in the collector's own
// books: the serial it took, the fill mark of the frame it landed in and
// the cursor and occupancy of the increment that owns the frame (zero for
// a large object, which no increment owns).
type AllocTrail struct {
	Serial uint32
	Fill   heap.Addr
	Cursor heap.Addr
	Bytes  int
}

// AllocTrailAt reads the trail of the allocation that returned a.
func (h *Heap) AllocTrailAt(a heap.Addr) AllocTrail {
	f := h.space.FrameOf(a)
	tr := AllocTrail{Serial: h.serial, Fill: h.fill[f]}
	if in := h.incrOf[f]; in != nil {
		tr.Cursor, tr.Bytes = in.cursor, in.bytes
	}
	return tr
}

// ApplyKnobs applies tuner decisions as runTuner does, but between two
// allocations instead of at the end of a collection — where collect has
// closed the window already, so that only this way does a window left
// open across a knob change show.
func (h *Heap) ApplyKnobs(updates []KnobUpdate) { h.applyKnobUpdates(updates) }
