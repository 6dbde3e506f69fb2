package core

import (
	"beltway/internal/gc"
	"beltway/internal/heap"
	"beltway/internal/markregion"
	"beltway/internal/remset"
	"beltway/internal/stats"
)

// scaffold is a heap and everything it is built of (see DESIGN.md §5, "Run
// lifecycle"): the Heap itself and its clock, the Space, root table and
// remembered-set table, and the arrays a run grows as it goes — the
// per-frame tables, the belts, the boot frame list, the collection
// scratch, the mark-region line metadata and gray stack, the buffer a
// collection gathers remembered-set roots in — and the run's increments.
// Release empties each, capacity kept, and the heap's next Reset builds on
// it, in the same Heap value. What a Heap built on it can observe is what
// a new one would: every table starts at length zero, every increment is
// a spare, the clock reads zero.
//
// Nothing a Result can alias is kept: a Result copies the pause log and
// reads the clock's numbers before the heap is released. The clock is
// reset only when the heap is built again, so until then a released heap
// still reads its clock and collection count.
type scaffold struct {
	shell Heap // the heap itself, so the closures below stay valid
	clock stats.Clock
	space heap.SpaceStorage
	roots gc.RootStorage
	rems  remset.Storage

	beltSpecs  []BeltSpec
	belts      []*Belt // every Belt a heap on the scaffold has had
	bootFrames []heap.Frame
	gcs        gcState

	stamp    []uint64
	incrOf   []*Increment
	immortal []bool
	fill     []heap.Addr
	cards    []bool
	spare    []*Increment
	rootBuf  []heap.Addr

	mrFrames []*markregion.Frame
	mrEvac   []bool
	// mrPool is detached line metadata of one markregion.Geometry, which
	// only a heap of that geometry takes (mrInit); others pass it on.
	mrPool  []*markregion.Frame
	mrQueue []heap.Addr

	// The heap's callbacks, made once over &shell.
	onMap, onUnmap   func()
	frameCondemnedFn func(heap.Frame) bool
	trigTargetFn     func(heap.Frame) bool
	mrSizeOfFn       func(off int) int
}

// newScaffold returns an empty scaffold with the heap's callbacks made.
func newScaffold() *scaffold {
	sc := &scaffold{}
	h := &sc.shell
	h.sc = sc
	sc.onMap = func() { h.clock.Counters.FramesMapped++ }
	sc.onUnmap = func() { h.clock.Counters.FramesUnmapped++ }
	sc.frameCondemnedFn = h.frameCondemned
	sc.trigTargetFn = func(f heap.Frame) bool {
		return int(f) < len(h.incrOf) && h.incrOf[f] == h.trigOld
	}
	sc.mrSizeOfFn = func(off int) int {
		return h.space.SizeOf(h.mr.sweepBase + heap.Addr(off))
	}
	return sc
}

// Release ends the heap's run. Its Space hands its slabs to the slab list
// for its frame size (heap.Space.Release), and everything else the run
// grew waits in the heap's scaffold for the next Reset. Until then the
// heap keeps only its Config, Clock and collection count: Roots and
// Remsets are nil, so a use after release panics instead of reaching
// another run's tables, and the Space faults on every access.
// Releasing twice is harmless.
func (h *Heap) Release() {
	if h.roots == nil {
		return
	}
	sc := h.sc
	for _, b := range h.belts {
		for _, in := range b.incrs {
			in.frames = in.frames[:0]
			h.spare = append(h.spare, in)
		}
		b.incrs = emptied(b.incrs)
	}
	for _, fs := range h.mr.frames {
		if fs != nil {
			h.mr.pool = append(h.mr.pool, fs)
		}
	}
	sc.space = h.space.Release()
	sc.roots = h.roots.Release()
	sc.rems = h.rems.Release()
	sc.bootFrames = emptied(h.boot.frames)
	sc.gcs = gcState{
		victims: emptied(h.gcs.victims),
		targets: emptied(h.gcs.targets),
		mosDest: emptied(h.gcs.mosDest),
		scans:   emptied(h.gcs.scans),
	}
	sc.stamp = emptied(h.stamp)
	sc.incrOf = emptied(h.incrOf)
	sc.immortal = emptied(h.immortal)
	sc.fill = emptied(h.fill)
	sc.cards = emptied(h.cards)
	sc.spare = h.spare
	sc.rootBuf = emptied(h.rootBuf)
	sc.mrFrames = emptied(h.mr.frames)
	sc.mrEvac = emptied(h.mr.evac)
	sc.mrPool = h.mr.pool
	sc.mrQueue = emptied(h.mr.queue)
	*h = Heap{cfg: h.cfg, space: h.space, clock: h.clock, gcCount: h.gcCount, sc: sc}
}

// emptied clears s and returns it at length zero: the array is kept, and
// nothing it held stays reachable or visible.
func emptied[T any](s []T) []T {
	clear(s)
	return s[:0]
}
