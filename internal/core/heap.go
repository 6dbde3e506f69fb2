package core

import (
	"fmt"

	"beltway/internal/gc"
	"beltway/internal/heap"
	"beltway/internal/remset"
	"beltway/internal/stats"
)

// Heap is a complete Beltway collector instance: the simulated address
// space, the belts and their increments, per-frame metadata (collection
// order stamps), the remembered-set table, and the cost-model clock.
// It implements gc.Collector.
type Heap struct {
	cfg   Config
	space *heap.Space
	clock *stats.Clock
	rems  *remset.Table
	roots *gc.RootSet
	hooks gc.Hooks

	belts     []*Belt
	allocBelt int // index of the belt receiving new allocation

	// win is the allocation window: the increment Alloc may bump without
	// running tryAlloc's decision tree, nil while the window is closed.
	// See openWindow for what an open window asserts and closeWindow for
	// what takes it away.
	win *Increment

	// Per-frame metadata, indexed by heap.Frame. Grown on demand.
	stamp    []uint64     // collection-order stamp (immortalStamp for boot frames)
	incrOf   []*Increment // owning increment; nil for immortal/unmapped
	immortal []bool
	fill     []heap.Addr // bump high-water mark per frame
	cards    []bool      // dirty-card table (CardBarrier only), indexed by addr >> cardShift

	heapFrames int // currently mapped collectible frames

	boot struct {
		cursor heap.Addr
		limit  heap.Addr
		frames []heap.Frame
		bytes  int
	}

	reserveBytes   int // current dynamic conservative copy reserve
	serial         uint32
	dbgBarrierHits int // slow-path count for DebugDropBarrierEvery
	inGC           bool
	gcCount        uint64
	slowAtLastGC   uint64 // Counters.BarrierSlowPaths at the previous GCEnd
	remsetPoll     int    // allocation counter throttling the remset trigger poll
	mos            mosState
	los            losState
	deg            degradeState
	mr             mrState

	// Reusable per-collection machinery, so steady-state collections and
	// trigger polls allocate nothing: the gcState scratch (the condemned
	// set, scan pointers, promotion targets), the increments retire has
	// kept for takeIncrement, the remset-root buffer, and closures that
	// would otherwise be rebuilt — and heap-allocated — on every use.
	gcs              gcState
	spare            []*Increment
	rootBuf          []heap.Addr
	frameCondemnedFn func(heap.Frame) bool
	trigOld          *Increment // target increment of the current trigger poll
	trigTargetFn     func(heap.Frame) bool

	// refKernel, set only by the reference-model test, runs the trace
	// through the word-at-a-time kernel kept in kernel_ref_test.go instead of
	// the slab-resident one, so the two can be compared heap for heap.
	refKernel *refKernel
}

// refKernel is the seam for the reference model: the three entry points
// of the trace kernel.
type refKernel struct {
	forward     func(a heap.Addr, st *gcState, ctx *Increment) (heap.Addr, error)
	advanceScan func(idx int, st *gcState) (bool, error)
	scanObject  func(obj heap.Addr, st *gcState) error
}

// New builds a collector from cfg. The type registry is shared with the
// mutator that will drive the heap. Its tables grow into the storage a
// released heap left behind, when there is one (Release).
func New(cfg Config, types *heap.Registry) (*Heap, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return newHeap(cfg, types, takeScaffold()), nil
}

// newHeap is New on a validated cfg, building on sc.
func newHeap(cfg Config, types *heap.Registry, sc *scaffold) *Heap {
	if isZeroCosts(cfg.Costs) {
		cfg.Costs = stats.DefaultCosts()
	}
	// The heap owns its belt specs: an adaptive Policy retunes them in
	// place, and the caller's Config (often a preset reused across runs)
	// must not see those writes.
	cfg.Belts = append([]BeltSpec(nil), cfg.Belts...)
	h := &Heap{
		cfg:      cfg,
		space:    heap.NewSpaceFrom(cfg.FrameBytes, types, sc.space),
		clock:    stats.NewClock(cfg.Costs),
		rems:     remset.NewTableFrom(sc.rems),
		roots:    gc.NewRootSetFrom(sc.roots),
		stamp:    sc.stamp,
		incrOf:   sc.incrOf,
		immortal: sc.immortal,
		fill:     sc.fill,
		cards:    sc.cards,
		spare:    sc.spare,
		rootBuf:  sc.rootBuf,
	}
	h.los.byFrame = sc.losOf
	h.mr.frames, h.mr.evac, h.mr.pool = sc.mrFrames, sc.mrEvac, sc.mrPool
	h.space.OnMap = func() { h.clock.Counters.FramesMapped++ }
	h.space.OnUnmap = func() { h.clock.Counters.FramesUnmapped++ }
	for i, spec := range cfg.Belts {
		h.belts = append(h.belts, &Belt{index: i, spec: spec, priority: uint16(i), promoteTo: spec.PromoteTo})
	}
	h.frameCondemnedFn = h.frameCondemned
	h.trigTargetFn = func(f heap.Frame) bool {
		return int(f) < len(h.incrOf) && h.incrOf[f] == h.trigOld
	}
	h.mrInit()
	h.recomputeReserve()
	return h
}

// Name implements gc.Collector.
func (h *Heap) Name() string { return h.cfg.Name }

// Config returns the collector's configuration.
func (h *Heap) Config() Config { return h.cfg }

// Clock implements gc.Collector.
func (h *Heap) Clock() *stats.Clock { return h.clock }

// Roots implements gc.Collector.
func (h *Heap) Roots() *gc.RootSet { return h.roots }

// Space implements gc.Collector.
func (h *Heap) Space() *heap.Space { return h.space }

// HeapBytes implements gc.Collector.
func (h *Heap) HeapBytes() int { return h.cfg.HeapBytes }

// Remsets exposes the remembered-set table (tests and stats).
func (h *Heap) Remsets() *remset.Table { return h.rems }

// Belts returns the live belt structures (inspection only).
func (h *Heap) Belts() []*Belt { return h.belts }

// AllocBeltIndex returns the index of the current allocation belt (it
// changes only under BOF flips).
func (h *Heap) AllocBeltIndex() int { return h.allocBelt }

// ReserveBytes returns the current dynamic copy reserve.
func (h *Heap) ReserveBytes() int { return h.reserveBytes }

// LiveEstimate implements gc.Collector: bytes occupied by objects in the
// collected space (survivors plus not-yet-collected garbage).
func (h *Heap) LiveEstimate() int {
	n := 0
	for _, b := range h.belts {
		n += b.Bytes()
	}
	return n
}

// SetHooks implements gc.Hookable.
func (h *Heap) SetHooks(hooks gc.Hooks) { h.hooks = hooks }

// Hooks returns the installed hooks, for a caller that adds its own
// (SetHooks(h.Hooks().Merge(more))) to whatever is attached already.
func (h *Heap) Hooks() gc.Hooks { return h.hooks }

// noteOOM reports an out-of-memory condition to the OOM hook (requested
// is 0 when the copy reserve ran out mid-collection rather than a
// mutator allocation failing).
func (h *Heap) noteOOM(requested int) {
	if h.hooks.OOM != nil {
		h.hooks.OOM(requested, h.cfg.HeapBytes)
	}
}

// FootprintBytes returns the mapped memory footprint (heap + boot image),
// the quantity compared against physical memory by the paging model.
func (h *Heap) FootprintBytes() int {
	return (h.heapFrames + len(h.boot.frames)) * h.cfg.FrameBytes
}

// freeBudgetBytes returns how many bytes of new frames the mutator may
// still map before the heap-full condition: budget minus mapped frames
// minus the copy reserve.
func (h *Heap) freeBudgetBytes() int {
	return h.cfg.HeapBytes - h.heapFrames*h.cfg.FrameBytes - h.reserveBytes
}

// freeBudgetFor is freeBudgetBytes as seen by an allocation into belt
// `forBelt`: the unclaimed portion of every OTHER belt's permanent
// reservation (BeltSpec.ReserveFrac) is unavailable, while the
// requesting belt may draw on its own.
func (h *Heap) freeBudgetFor(forBelt int) int {
	free := h.freeBudgetBytes()
	usable := h.cfg.HeapBytes - h.reserveBytes
	for i, b := range h.belts {
		rf := b.spec.ReserveFrac
		if rf <= 0 || i == forBelt {
			continue
		}
		held := 0
		for _, in := range b.incrs {
			held += len(in.frames) * h.cfg.FrameBytes
		}
		if reserved := int(rf * float64(usable)); reserved > held {
			free -= reserved - held
		}
	}
	return free
}

// ensureFrameMeta grows the per-frame metadata tables to cover f.
func (h *Heap) ensureFrameMeta(f heap.Frame) {
	for int(f) >= len(h.stamp) {
		h.stamp = append(h.stamp, 0)
		h.incrOf = append(h.incrOf, nil)
		h.immortal = append(h.immortal, false)
		h.fill = append(h.fill, heap.Nil)
	}
	if h.cfg.Barrier == CardBarrier {
		h.ensureCards(f)
		h.clearFrameCards(f)
	}
}

// Alloc implements gc.Collector. It bump-allocates size bytes in the
// allocation belt, triggering collections per the configuration's
// scheduling rules when space runs out.
//
// After the charges every allocation pays, an allocation that fits the
// open window is the bump and a header, and nothing else: tryAlloc's
// decision tree, which opened the window, would come to the same bump
// (see openWindow). Only a miss runs the tree.
func (h *Heap) Alloc(t *heap.TypeDesc, length int) (heap.Addr, error) {
	size := t.Size(length)
	if th := h.losThreshold(); th > 0 && size > th {
		return h.allocLOS(t, length, size)
	}
	if size > h.cfg.FrameBytes {
		return heap.Nil, fmt.Errorf("core: object of %d bytes exceeds frame size %d (enable the LOS via LOSThresholdBytes)", size, h.cfg.FrameBytes)
	}
	// chargeAlloc, written out: a call here would be core's second on the
	// path of every allocation (DESIGN.md §5, "Mutator fast path").
	c := &h.clock.Counters
	c.ObjectsAllocated++
	c.BytesAllocated += uint64(size)
	h.clock.Advance(h.cfg.Costs.AllocByte*float64(size) + h.cfg.Costs.BarrierFast)
	if h.overcommitted() {
		h.chargePaging(size)
	}

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

	if in := h.win; in != nil && in.cursor+heap.Addr(size) <= in.limit {
		h.serial++
		a := h.bumpTail(in, size)
		h.space.Format(a, t, length, h.serial)
		return a, nil
	}
	return h.allocSlow(t, length, size)
}

// allocSlow is Alloc for an allocation that missed the window: the
// decision tree, and collections until it finds room.
func (h *Heap) allocSlow(t *heap.TypeDesc, length, size int) (heap.Addr, error) {
	a, ok, err := h.allocCollecting(size, func() (heap.Addr, bool) { return h.tryAlloc(size) })
	if err != nil {
		return heap.Nil, err
	}
	if !ok {
		return heap.Nil, h.oomError(size,
			fmt.Sprintf("%s: no progress after repeated collections", h.cfg.Name))
	}
	h.serial++
	h.space.Format(a, t, length, h.serial)
	return a, nil
}

// allocCollecting is the retry loop the three allocators share: try, an
// allocator's attempt to find size bytes without collecting, then for as
// long as it fails a collection and another try — and, past the bound,
// the degradation ladder's emergency collection and last try. It reports
// false when all of that found no room; the caller raises its own OOM.
//
// A tight heap may need several incremental collections (nursery, then
// belt-1 increments in FIFO order, then the top belt) before a frame
// frees, so the bound scales with the number of live increments. It is
// summed after the first failed try, which changes no belt: an allocation
// that finds room at once never pays for it.
func (h *Heap) allocCollecting(size int, try func() (heap.Addr, bool)) (heap.Addr, bool, error) {
	if a, ok := try(); ok {
		return a, true, nil
	}
	for attempts := 4 + 2*len(h.belts) + h.numIncrements(); attempts > 0; attempts-- {
		if err := h.collectForAlloc(); err != nil {
			return heap.Nil, false, err
		}
		if a, ok := try(); ok {
			return a, true, nil
		}
	}
	if h.cfg.Degrade {
		return h.rescueAlloc(size, try)
	}
	return heap.Nil, false, nil
}

// chargeAlloc is what an allocation of size bytes on the belts or in the
// large object space pays before it looks for room. AllocByte covers
// zeroing and header init; BarrierFast models the TIB-initialization store
// every Jikes allocation performs (§3.3.2). The pretenured and large
// allocators call it; Alloc carries the same lines inline.
func (h *Heap) chargeAlloc(size int) {
	c := &h.clock.Counters
	c.ObjectsAllocated++
	c.BytesAllocated += uint64(size)
	h.clock.Advance(h.cfg.Costs.AllocByte*float64(size) + h.cfg.Costs.BarrierFast)
	if h.overcommitted() {
		h.chargePaging(size)
	}
}

// numIncrements counts the increments on all belts.
func (h *Heap) numIncrements() int {
	n := 0
	for _, b := range h.belts {
		n += b.Len()
	}
	return n
}

// overcommitted reports whether the mapped footprint exceeds physical
// memory, which is when an allocation owes chargePaging. It inlines into
// the allocators: a run that never pages pays this test and no call.
func (h *Heap) overcommitted() bool {
	pm := h.cfg.PhysMemBytes
	return pm > 0 && h.FootprintBytes() > pm
}

// chargePaging applies the cost model's paging term: once the mapped
// footprint exceeds physical memory, mutator work slows in proportion to
// the overcommit ratio (this reproduces the large-heap degradation of
// paper Figures 1(b) and 10(f)).
func (h *Heap) chargePaging(bytes int) {
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

// tryAlloc attempts an allocation of size bytes without collecting: the
// decision tree behind a window miss. Where it allocates into the
// allocation belt's youngest increment it goes through allocIn, which
// reopens the window.
func (h *Heap) tryAlloc(size int) (heap.Addr, bool) {
	belt := h.belts[h.allocBelt]
	in := belt.Youngest()

	if in != nil && !in.condemned && h.ttdDue(belt) {
		return h.allocNewIncrement(belt, size, true)
	}

	if in != nil && !in.condemned {
		if in.cursor != heap.Nil && in.cursor+heap.Addr(size) <= in.limit {
			return h.allocIn(in, size), true
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
			h.addFrame(in)
			return h.allocIn(in, size), true
		}
		if in.atCapacity() {
			// Nursery trigger territory: the increment is at its size
			// bound. Open a sibling increment if the belt allows more.
			return h.allocNewIncrement(belt, size, false)
		}
		return heap.Nil, false // heap full
	}
	return h.allocNewIncrement(belt, size, false)
}

// ttdDue reports whether the time-to-die trigger (§3.3.3) fires on belt,
// the allocation belt: within TTDBytes of heap-full, allocation moves to
// a fresh nursery increment so that the youngest objects escape the next
// collection.
func (h *Heap) ttdDue(belt *Belt) bool {
	return h.cfg.TTDBytes > 0 && belt.Len() == 1 &&
		h.freeBudgetFor(h.allocBelt) < h.cfg.TTDBytes
}

// allocNewIncrement opens a new increment on belt and allocates size
// bytes in it, if the belt's increment bound and the heap budget allow.
// bypassMax skips the MaxIncrements check (used by the TTD trigger).
func (h *Heap) allocNewIncrement(belt *Belt, size int, bypassMax bool) (heap.Addr, bool) {
	if !bypassMax && belt.spec.MaxIncrements > 0 && belt.Len() >= belt.spec.MaxIncrements {
		return heap.Nil, false
	}
	if h.freeBudgetFor(h.allocBelt) < h.cfg.FrameBytes {
		return heap.Nil, false
	}
	in := h.newIncrement(belt)
	h.addFrame(in)
	return h.allocIn(in, size), true
}

// allocIn allocates size bytes in in, the allocation belt's youngest
// increment, where tryAlloc has just found or made room, and opens the
// window on it.
func (h *Heap) allocIn(in *Increment, size int) heap.Addr {
	h.openWindow(in)
	return h.bump(in, size)
}

// openWindow lets Alloc bump into in without asking tryAlloc, for as long
// as tryAlloc would do nothing else: in is the allocation belt's youngest
// increment, not condemned, with an open frame, and the time-to-die
// trigger — the one test the tree makes before it looks for room — does
// not fire. It is asked here, not taken from the tree's own test a moment
// ago, because the tree may have mapped a frame since. None of this
// depends on the object allocated, so it stays true until closeWindow is
// called; an allocation that does not fit in.limit is the one thing Alloc
// has to see for itself.
//
// The window never opens on a mark-region increment, whose bump accounts
// lines and object starts and whose room is a line run, not a frame tail.
// It holds no view of the frame's slab: the header is written through
// Format's own translation, so there is nothing to go stale.
func (h *Heap) openWindow(in *Increment) {
	if !h.isMRBelt(in.belt) && !h.ttdDue(h.belts[in.belt]) {
		h.win = in
	}
}

// closeWindow sends the next allocation through tryAlloc. It is called by
// whatever could change a decision the tree makes on the way to its bump:
//
//   - collect: increments are condemned, emptied and dropped, survivors
//     may be copied into the window's increment, and the budget the
//     time-to-die trigger reads is recomputed;
//   - addFrame, for any increment, and a large-object span: mapped frames
//     and the copy reserve move, so the time-to-die trigger may now fire
//     (a pretenured or collector-side frame moves them as an allocation's
//     own does);
//   - newIncrement and flipBelts: the allocation belt's youngest increment
//     may be another one;
//   - applyKnobUpdates: TTDBytes, ReserveFrac and the reserve are retuned.
//
// Boot-image frames are in no budget the tree reads, so AllocImmortal is
// not on the list. Closing when nothing changed costs one pass of the
// tree, which reopens the window and allocates where the window would
// have; it cannot change a run.
func (h *Heap) closeWindow() { h.win = nil }

// newIncrement creates an empty increment at the back of belt, fixing its
// frame budget from the current usable memory.
func (h *Heap) newIncrement(belt *Belt) *Increment {
	if h.cfg.MOS && belt.index == h.mosBelt() {
		panic("core: newIncrement on the MOS belt (use newMOSCar)")
	}
	h.closeWindow()
	in := h.takeIncrement(Increment{belt: belt.index, seq: belt.nextSeq, train: -1, capFrames: h.frameBudget(belt)})
	belt.nextSeq++
	belt.incrs = append(belt.incrs, in)
	return in
}

// frameBudget is the frame budget of an increment opened on belt now: its
// IncrementFrac of the current usable memory, one frame at least, or 0
// (unbounded) when IncrementFrac >= 1.
func (h *Heap) frameBudget(belt *Belt) int {
	f := belt.spec.IncrementFrac
	if f >= 1.0 {
		return 0
	}
	usable := h.cfg.HeapBytes - h.reserveBytes
	return max(int(f*float64(usable))/h.cfg.FrameBytes, 1)
}

// addFrame maps a fresh frame for increment in and makes it the bump
// target. Tail space in the previous frame is abandoned (and counted as
// occupancy at frame granularity by the budget, as in a real VM).
func (h *Heap) addFrame(in *Increment) {
	f := h.space.MapFrame()
	h.closeWindow()
	h.ensureFrameMeta(f)
	belt := h.belts[in.belt]
	h.stamp[f] = stampOf(belt.priority, in.seq)
	h.incrOf[f] = in
	h.immortal[f] = false
	base := h.space.FrameBase(f)
	h.fill[f] = base
	in.frames = append(in.frames, f)
	in.cursor = base
	in.limit = h.space.FrameLimit(f)
	if h.isMRBelt(in.belt) {
		h.mrAttach(f)
	}
	h.heapFrames++
	h.clock.Advance(h.cfg.Costs.FrameOp)
	if !h.inGC {
		// The reserve tracks occupancy continuously (§3.3.4); growing
		// the heap by a frame can grow the worst-case condemned set.
		h.recomputeReserve()
	}
}

// bump performs the bump allocation inside the increment's open window
// (a frame tail for copying increments, a free-line run for mark-region
// ones, where the new object's start and line span are also recorded).
func (h *Heap) bump(in *Increment, size int) heap.Addr {
	f := h.space.FrameOf(in.cursor)
	fs := h.mrFrame(f)
	if fs == nil {
		return h.bumpTail(in, size)
	}
	a := in.cursor
	in.cursor += heap.Addr(size)
	h.fill[f] = in.cursor
	// Mark-region occupancy is line-granular at all times: the
	// increment accounts whole lines as they first become used.
	newLines := fs.NoteAlloc(int(a-h.space.FrameBase(f)), size)
	in.bytes += newLines * h.mr.geo.LineBytes
	return a
}

// bumpTail is the bump itself, into the frame tail of a copying
// increment whose cursor the caller has checked against its limit: the
// one place a copying increment grows, be it by Alloc through the window,
// by tryAlloc, by a pretenured allocation or by a survivor copied in.
func (h *Heap) bumpTail(in *Increment, size int) heap.Addr {
	a := in.cursor
	in.cursor = a + heap.Addr(size)
	h.fill[h.space.FrameOf(a)] = in.cursor
	in.bytes += size
	return a
}

// AllocImmortal implements gc.Collector: bump allocation in the boot
// image. Immortal frames carry the maximal collection-order stamp, so the
// frame barrier remembers boot-image stores into the heap; the boundary
// barrier instead scans the boot image at every collection.
func (h *Heap) AllocImmortal(t *heap.TypeDesc, length int) (heap.Addr, error) {
	size := t.Size(length)
	if size > h.cfg.FrameBytes {
		return heap.Nil, fmt.Errorf("core: immortal object of %d bytes exceeds frame size %d",
			size, h.cfg.FrameBytes)
	}
	if h.boot.cursor == heap.Nil || h.boot.cursor+heap.Addr(size) > h.boot.limit {
		f := h.space.MapFrame()
		h.ensureFrameMeta(f)
		h.stamp[f] = immortalStamp
		h.immortal[f] = true
		h.boot.frames = append(h.boot.frames, f)
		h.boot.cursor = h.space.FrameBase(f)
		h.boot.limit = h.space.FrameLimit(f)
		h.fill[f] = h.boot.cursor
	}
	a := h.boot.cursor
	h.boot.cursor += heap.Addr(size)
	h.boot.bytes += size
	h.fill[h.space.FrameOf(a)] = h.boot.cursor
	h.serial++
	h.space.Format(a, t, length, h.serial)
	h.clock.Counters.ObjectsAllocated++
	h.clock.Advance(h.cfg.Costs.AllocByte * float64(size))
	return a, nil
}

// Collections returns the number of collections performed.
func (h *Heap) Collections() uint64 { return h.gcCount }
