package core

import (
	"beltway/internal/gc"
	"beltway/internal/heap"
	"beltway/internal/markregion"
	"beltway/internal/remset"
)

// scaffold is what Release hands the next Heap built in the process (see
// DESIGN.md §5, "Run lifecycle"): the arrays a run grows as it goes —
// the root table, the remembered-set storage, the per-frame tables (the
// large object space's among them), the Space's frame table and recycle
// queue, the mark-region line metadata, the buffer a collection gathers
// remembered-set roots in — each emptied with its capacity kept, and the
// run's increments. What a Heap built on it can observe is what a new one
// would: every table starts at length zero, every increment is a spare.
//
// Nothing a Result can alias is in it: the clock and its pause list stay
// with the run.
type scaffold struct {
	space heap.SpaceStorage
	roots gc.RootStorage
	rems  remset.Storage

	stamp    []uint64
	incrOf   []*Increment
	immortal []bool
	fill     []heap.Addr
	cards    []bool
	losOf    []*losObject
	spare    []*Increment
	rootBuf  []heap.Addr

	mrFrames []*markregion.Frame
	mrEvac   []bool
	// mrPool is detached line metadata of one markregion.Geometry, which
	// only a heap of that geometry takes (mrInit); others pass it on.
	mrPool []*markregion.Frame
}

// scaffolds holds the scaffolds of released heaps, for New. Like the slab
// lists it is a heap.FreeList: a scaffold outlives any number of Go
// collections, and the list holds at most as many as there were heaps
// live at once.
var scaffolds heap.FreeList[*scaffold]

// takeScaffold returns a released heap's scaffold, or an empty one.
func takeScaffold() *scaffold {
	if sc, ok := scaffolds.Take(); ok {
		return sc
	}
	return &scaffold{}
}

// Release ends the heap's run. Its Space hands its slabs to the slab list
// for its frame size (heap.Space.Release), and everything else the run
// grew goes to the next Heap New builds in the process. Call it once the
// clock has been read. Afterwards the heap keeps only its Config, Clock
// and collection count: Roots and Remsets are nil, so a use after release
// panics instead of reaching another run's tables, and the Space faults
// on every access.
// Releasing twice is harmless.
func (h *Heap) Release() {
	if h.roots == nil {
		return
	}
	scaffolds.Put(h.dismantle())
}

// dismantle is Release up to the list: the heap emptied into a scaffold.
func (h *Heap) dismantle() *scaffold {
	for _, b := range h.belts {
		for _, in := range b.incrs {
			in.frames = in.frames[:0]
			h.spare = append(h.spare, in)
		}
	}
	for _, fs := range h.mr.frames {
		if fs != nil {
			h.mr.pool = append(h.mr.pool, fs)
		}
	}
	sc := &scaffold{
		space:    h.space.Release(),
		roots:    h.roots.Release(),
		rems:     h.rems.Release(),
		stamp:    emptied(h.stamp),
		incrOf:   emptied(h.incrOf),
		immortal: emptied(h.immortal),
		fill:     emptied(h.fill),
		cards:    emptied(h.cards),
		losOf:    emptied(h.los.byFrame),
		spare:    h.spare,
		rootBuf:  emptied(h.rootBuf),
		mrFrames: emptied(h.mr.frames),
		mrEvac:   emptied(h.mr.evac),
		mrPool:   h.mr.pool,
	}
	*h = Heap{cfg: h.cfg, space: h.space, clock: h.clock, gcCount: h.gcCount}
	return sc
}

// emptied clears s and returns it at length zero: the array is kept, and
// nothing it held stays reachable or visible.
func emptied[T any](s []T) []T {
	clear(s)
	return s[:0]
}
