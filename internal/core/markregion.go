package core

import (
	"beltway/internal/heap"
	"beltway/internal/markregion"
)

// Mark-region substrate integration (BeltSpec.Substrate == MarkRegion).
//
// A mark-region belt keeps the belt/increment/stamp discipline of the
// copying substrate, but an increment's frames are divided into lines
// (internal/markregion) and reclaimed without moving survivors:
//
//   - allocation bumps over runs of free lines, skipping holes too
//     small for the object (Immix's conservative skip);
//
//   - when an increment is condemned, it is RENEWED — re-sequenced to
//     the back of its belt with its frames restamped — before the
//     trace, so reachable objects can be marked in place while the
//     remembered sets stay sound (see mrPrepareCollection);
//
//   - frames whose line occupancy fell below Config.MRDefragFrac are
//     instead evacuated through the ordinary forward/CopyObject path,
//     which keeps the vm.Validator mirror and the remsets correct for
//     defragmentation moves for free;
//
//   - after the trace, dead lines are swept back into allocatable runs
//     and the increment rejoins its belt with line-granularity
//     occupancy.
type mrState struct {
	active bool
	geo    markregion.Geometry

	frames []*markregion.Frame // by heap.Frame; nil for copying/boot frames
	evac   []bool              // by heap.Frame: defrag candidate in the current GC
	pool   []*markregion.Frame // detached frame metadata of one geometry, reused on attach

	queue []heap.Addr // gray stack: in-place marked and MR-copied objects to scan

	// Reusable Sweep size callback (closures on the release path would
	// allocate); sweepBase parameterizes it per frame.
	sizeOfFn  func(off int) int
	sweepBase heap.Addr
}

// mrInit prepares the substrate state at construction time. Line
// metadata a released heap left in the pool is kept only if it has this
// heap's geometry; a heap with no mark-region belt keeps it untouched,
// for Release to pass on.
func (h *Heap) mrInit() {
	for _, b := range h.cfg.Belts {
		if b.Substrate == MarkRegion {
			h.mr.active = true
		}
	}
	if !h.mr.active {
		return
	}
	lb := h.cfg.MRLineBytes
	if lb == 0 {
		lb = markregion.DefaultLineBytes
	}
	g, err := markregion.NewGeometry(h.cfg.FrameBytes, lb)
	if err != nil {
		panic(err) // unreachable: Validate checked the geometry
	}
	h.mr.geo = g
	if len(h.mr.pool) > 0 && h.mr.pool[0].Geometry() != g {
		h.mr.pool = emptied(h.mr.pool)
	}
	h.mr.sizeOfFn = h.sc.mrSizeOfFn
}

// isMRBelt reports whether belt bi uses the mark-region substrate.
func (h *Heap) isMRBelt(bi int) bool {
	return h.mr.active && h.cfg.Belts[bi].Substrate == MarkRegion
}

// mrEvacuatesAll reports whether belt bi, a mark-region belt, must
// evacuate every frame of a condemned increment. A belt bounded to
// MaxIncrements bounded increments (the nursery trigger) has a fixed
// capacity, and survivors marked in place never leave it: once live data
// fills that capacity no collection frees a line, whatever the heap
// size. When such a belt promotes to another, its survivors are promoted
// as a copying belt's are — it keeps line-granular allocation but not
// in-place retention — and it charges the copy reserve its full
// occupancy.
func (h *Heap) mrEvacuatesAll(bi int) bool {
	s := &h.cfg.Belts[bi]
	return s.MaxIncrements > 0 && s.IncrementFrac < 1.0 && s.PromoteTo != bi
}

// mrFrame returns frame f's mark-region metadata, nil for copying,
// boot-image and unmapped frames. The len check keeps the
// copying-substrate fast paths at a single compare when no belt is
// mark-region (the slice stays empty).
func (h *Heap) mrFrame(f heap.Frame) *markregion.Frame {
	if int(f) >= len(h.mr.frames) {
		return nil
	}
	return h.mr.frames[f]
}

// mrAttach installs fresh line metadata for frame f (from the pool when
// possible). Called by addFrame for mark-region increments.
func (h *Heap) mrAttach(f heap.Frame) {
	for int(f) >= len(h.mr.frames) {
		h.mr.frames = append(h.mr.frames, nil)
		h.mr.evac = append(h.mr.evac, false)
	}
	var fs *markregion.Frame
	if n := len(h.mr.pool); n > 0 {
		fs = h.mr.pool[n-1]
		h.mr.pool = h.mr.pool[:n-1]
		fs.Reset()
	} else {
		fs = h.mr.geo.NewFrame()
	}
	h.mr.frames[f] = fs
}

// mrDetach returns frame f's metadata to the pool (releaseFrame).
func (h *Heap) mrDetach(f heap.Frame) {
	h.mr.pool = append(h.mr.pool, h.mr.frames[f])
	h.mr.frames[f] = nil
	h.mr.evac[f] = false
}

// mrRefill points increment in's bump window at the next run of free
// lines among its frames, resuming from the per-increment line cursor
// (reset by each sweep, so one allocation cycle visits each line once).
// A run shorter than the object's line footprint is skipped wholesale —
// the conservative skip that keeps medium objects contiguous. Returns
// false when no frame of the increment has a big-enough run.
func (h *Heap) mrRefill(in *Increment, size int) bool {
	if !h.isMRBelt(in.belt) {
		return false
	}
	need := h.mr.geo.LinesFor(size)
	for in.mrFi < len(in.frames) {
		f := in.frames[in.mrFi]
		start, end, ok := h.mr.frames[f].FindRun(in.mrLine, need)
		if !ok {
			in.mrFi++
			in.mrLine = 0
			continue
		}
		base := h.space.FrameBase(f)
		in.cursor = base + heap.Addr(start*h.mr.geo.LineBytes)
		in.limit = base + heap.Addr(end*h.mr.geo.LineBytes)
		in.mrLine = end
		// Recycled lines still hold the swept objects' bytes; new objects
		// must see nil slots and zero data, as they would in a fresh frame.
		h.space.ZeroRange(in.cursor, int(in.limit-in.cursor))
		return true
	}
	return false
}

// mrRefillBelt hunts a free-line run across ALL of a mark-region belt's
// increments (oldest first) and bump-allocates size bytes into the first
// hole found. Mutator allocation normally targets the youngest
// increment; reusing holes in older increments is what turns swept
// lines back into capacity without waiting for those increments to
// empty. Stamp soundness is unaffected: the write barrier compares
// frame stamps, not allocation order.
func (h *Heap) mrRefillBelt(bi, size int) (heap.Addr, bool) {
	if !h.isMRBelt(bi) {
		return heap.Nil, false
	}
	for _, in := range h.belts[bi].incrs {
		if in.condemned {
			continue
		}
		if in.cursor != heap.Nil && in.cursor+heap.Addr(size) <= in.limit {
			return h.bump(in, size), true
		}
		if h.mrRefill(in, size) {
			return h.bump(in, size), true
		}
	}
	return heap.Nil, false
}

// mrPrepareCollection renews the condemned mark-region increments and
// flags their sparse frames for evacuation, BEFORE any tracing.
//
// Renewal — re-sequencing the increment to the back of its belt and
// restamping its frames — is what keeps the remembered sets sound for
// in-place survivors. The argument:
//
//   - every live pointer INTO the renewed increment from outside the
//     condemned set is processed by this collection (remset roots, or a
//     slot of a scanned survivor), and every such slot passes through
//     rescanSlot, which re-inserts it iff still interesting under the
//     new (higher) stamp;
//
//   - raising a target's stamp only shrinks the set of interesting
//     pointers, so entries not re-inserted are not needed: any frame
//     whose stamp is below the renewed increment's new stamp is
//     collected before it (FIFO/priority order), and its survivors'
//     slots are re-examined — against the then-current stamps — at
//     that collection;
//
//   - FIFO progress is preserved: the renewed increment re-enters at
//     the back, so the belt's other increments are each collected
//     before it is condemned again.
func (h *Heap) mrPrepareCollection(victims []*Increment) {
	if !h.mr.active {
		return
	}
	h.mr.queue = h.mr.queue[:0]
	threshold := 0
	if h.cfg.MRDefragFrac > 0 {
		threshold = int(h.cfg.MRDefragFrac * float64(h.mr.geo.Lines()))
	}
	for _, in := range victims {
		if !h.isMRBelt(in.belt) {
			continue
		}
		all := h.mrEvacuatesAll(in.belt)
		for _, f := range in.frames {
			h.mr.evac[f] = all || h.mr.frames[f].UsedLines() < threshold
		}
		belt := h.belts[in.belt]
		belt.remove(in)
		in.seq = belt.nextSeq
		belt.nextSeq++
		belt.incrs = append(belt.incrs, in)
		for _, f := range in.frames {
			h.stamp[f] = stampOf(belt.priority, in.seq)
		}
	}
}

// mrStale reports whether val points into a mark-region frame at an
// address where no object currently starts — a stale pointer to storage
// reclaimed by a line sweep. Live objects can never hold such a value
// (a reachable referent is marked, so it survives every sweep); they
// appear only in slots of dead objects conservatively resurrected
// through stale remembered-set entries. Copying substrates tolerate
// those stale pointers because a condemned copying frame holds valid
// headers end to end; a swept line does not, so callers must clear the
// slot instead of forwarding.
func (h *Heap) mrStale(val heap.Addr) bool {
	if !h.mr.active {
		return false
	}
	f := h.space.FrameOf(val)
	fs := h.mrFrame(f)
	return fs != nil && !fs.IsObjStart(int(val-h.space.FrameBase(f)))
}

// mrMark marks the condemned object at a, of the given size, in place
// (unless its frame is an evacuation candidate), queueing it for scanning
// on first mark. Reports whether the object is handled by the mark path;
// forward falls through to the copying path otherwise.
func (h *Heap) mrMark(a heap.Addr, size int) bool {
	f := h.space.FrameOf(a)
	fs := h.mrFrame(f)
	if fs == nil || h.mr.evac[f] {
		return false
	}
	if fs.Mark(int(a - h.space.FrameBase(f))) {
		c := &h.clock.Counters
		c.MRObjectsMarked++
		c.MRBytesMarked += uint64(size)
		h.clock.Advance(h.cfg.Costs.MarkObject)
		h.mr.queue = append(h.mr.queue, a)
	}
	return true
}

// drainMRQueue scans objects marked in place (and objects copied into
// mark-region frames, which cannot be Cheney-scanned because their
// frames have holes). Returns whether it advanced; the collect fixpoint
// loops it against the Cheney scans.
func (h *Heap) drainMRQueue(st *gcState) (bool, error) {
	advanced := false
	for len(h.mr.queue) > 0 {
		a := h.mr.queue[len(h.mr.queue)-1]
		h.mr.queue = h.mr.queue[:len(h.mr.queue)-1]
		advanced = true
		if err := h.scanObject(a, st); err != nil {
			return advanced, err
		}
	}
	return advanced, nil
}

// mrRelease completes the collection of a renewed mark-region
// increment: evacuated and object-free frames are unmapped; the rest
// are swept to free line runs. The increment — renewed to the back of
// its belt by mrPrepareCollection — rejoins it with line-granularity
// occupancy, or leaves the belt when nothing survived anywhere.
func (h *Heap) mrRelease(in *Increment) {
	c := &h.clock.Counters
	kept := in.frames[:0]
	bytes := 0
	for _, f := range in.frames {
		fs := h.mr.frames[f]
		usedBefore := fs.UsedLines()
		live := 0
		if !h.mr.evac[f] {
			h.mr.sweepBase = h.space.FrameBase(f)
			_, live = fs.Sweep(h.mr.sizeOfFn)
			h.clock.Advance(h.cfg.Costs.LineSweepByte * float64(h.cfg.FrameBytes))
		}
		if h.mr.evac[f] || live == 0 {
			if h.mr.evac[f] {
				c.MRFramesEvacuated++
			}
			c.MRLinesReclaimed += uint64(usedBefore)
			h.releaseFrame(f)
			continue
		}
		c.MRFramesSwept++
		c.MRLinesReclaimed += uint64(usedBefore - fs.UsedLines())
		kept = append(kept, f)
		bytes += fs.UsedLines() * h.mr.geo.LineBytes
	}
	in.frames = kept
	in.bytes = bytes
	in.cursor, in.limit = heap.Nil, heap.Nil
	in.mrFi, in.mrLine = 0, 0
	in.condemned = false
	if len(in.frames) == 0 {
		h.retire(in)
	}
}

// mrCopyBound bounds the bytes a condemned increment can force through
// the copy reserve: everything for a copying increment, but only the
// evacuation candidates for a mark-region one — a frame is evacuated
// only when its occupancy is below MRDefragFrac, so each contributes
// less than MRDefragFrac*FrameBytes of survivors. With defragmentation
// off, a mark-region collection copies nothing at all. A belt that
// evacuates wholesale (mrEvacuatesAll) is bounded like a copying one.
func (h *Heap) mrCopyBound(in *Increment) int {
	if !h.isMRBelt(in.belt) || h.mrEvacuatesAll(in.belt) {
		return in.bytes
	}
	bound := int(h.cfg.MRDefragFrac*float64(h.cfg.FrameBytes)) * len(in.frames)
	if in.bytes < bound {
		return in.bytes
	}
	return bound
}

// mrBeltCopyBound is mrCopyBound summed over a whole belt (the bytes a
// wholesale condemnation of the belt can copy).
func (h *Heap) mrBeltCopyBound(b *Belt) int {
	n := 0
	for _, in := range b.incrs {
		n += h.mrCopyBound(in)
	}
	return n
}
