package core

import (
	"fmt"

	"beltway/internal/gc"
	"beltway/internal/heap"
	"beltway/internal/stats"
)

// gcState carries the per-collection working set: the condemned
// increments, the promotion targets resolved so far, the Cheney scan
// positions over every target increment, and what the condemn phase
// establishes for the phases after it. One instance lives on the Heap and
// is reset per collection. Together with the increments retire keeps for
// reuse, it is why a steady-state collection allocates nothing
// (TestSteadyStateCollectionsAllocateNothing).
type gcState struct {
	// victims is the condemned set, and between collections the buffer
	// the next one is chosen in (beltsBelow).
	victims []*Increment
	// targets is indexed by source belt: the increment receiving its
	// survivors. A MOS belt evacuates by referrer, so forward sets its
	// entry for each object in hand.
	targets []*Increment
	mosDest []mosDest // the open destination car of each MOS train this collection
	scans   []scanState

	trigger gc.TriggerKind
	full    bool           // the condemned bytes cover the occupied heap (GCBeginInfo.Full)
	t0      float64        // clock and counters before the collection's first
	c0      stats.Counters // charge, for GCEnd's deltas
}

// scanState is a Cheney scan pointer over one target increment. Newly
// copied objects land at the increment's bump cursor; the scan chases the
// cursor frame by frame until it catches up. Scan states live in
// gcState.scans by value; they are addressed by index because forwarding
// can grow the slice mid-scan.
type scanState struct {
	in   *Increment
	fi   int       // index into in.frames currently being scanned
	addr heap.Addr // next object to scan within frame fi
}

// reset prepares the reusable scan machinery for a collection over nBelts
// belts.
func (st *gcState) reset(victims []*Increment, nBelts int) {
	st.victims = victims
	if cap(st.targets) < nBelts {
		st.targets = make([]*Increment, nBelts)
	}
	st.targets = st.targets[:nBelts]
	clear(st.targets)
	clear(st.mosDest)
	st.mosDest = st.mosDest[:0]
	st.scans = st.scans[:0]
}

// mosDest pairs a MOS train with its open destination car.
type mosDest struct {
	train int
	car   *Increment
}

// mosCar returns train's open destination car, nil if it has none yet.
// The list holds one entry per train the collection evacuates into,
// which is bounded by the trains holding referrers. Measured, it holds
// at most 3 on `experiments -exp mos` (scales 0.25 and 1) and at most 2
// on the core and oracle tests and `fuzzcheck -rounds 200`, with about
// 1.7 entries read per lookup.
func (st *gcState) mosCar(train int) *Increment {
	for _, d := range st.mosDest {
		if d.train == train {
			return d.car
		}
	}
	return nil
}

// setMOSCar makes in the open destination car of its train.
func (st *gcState) setMOSCar(in *Increment) {
	for i := range st.mosDest {
		if st.mosDest[i].train == in.train {
			st.mosDest[i].car = in
			return
		}
	}
	st.mosDest = append(st.mosDest, mosDest{in.train, in})
}

// collect performs one stop-the-world collection of the given increments.
// It is a Cheney copying collection whose root set is the mutator roots;
// the remembered-set entries targeting the condemned frames (from
// non-condemned frames) or, for card-marking configurations, the dirty
// cards of every uncollected frame; and — for boundary-barrier
// configurations — the entire boot image.
//
// The body is the list of phases (DESIGN.md §5, "Anatomy of a
// collection"); gcState carries what one establishes for the next.
func (h *Heap) collect(victims []*Increment, trigger gc.TriggerKind) error {
	if h.inGC {
		panic("core: recursive collection")
	}
	h.inGC = true
	defer func() { h.inGC = false }()
	h.closeWindow()
	if h.hooks.PreGC != nil {
		h.hooks.PreGC()
	}
	h.clock.BeginPause()
	defer h.clock.EndPause()

	st := &h.gcs
	h.condemn(victims, trigger, st)
	if err := h.scanRoots(st); err != nil {
		return err
	}
	slots := h.harvestRemsets(st)
	// Boundary-barrier configurations pay the boot scan at every
	// collection: their cheap barrier does not remember boot-image stores,
	// as the paper notes of Appel's collector.
	if h.cfg.Barrier == BoundaryBarrier {
		if err := h.scanBootImage(st); err != nil {
			return err
		}
	}
	// Pointers into the condemned set from the rest of the heap: the
	// dirty cards of a card-marking configuration, the harvested
	// remembered-set entries otherwise.
	if h.cfg.Barrier == CardBarrier {
		if err := h.scanDirtyCards(st); err != nil {
			return err
		}
	}
	if err := h.scanRemsetSlots(slots, st); err != nil {
		return err
	}
	if err := h.drain(st); err != nil {
		return err
	}
	h.release(st)
	h.finish(st)
	return nil
}

// condemn opens the collection: it charges the set-up, marks the victims,
// tells the GCBegin and Condemned hooks, renews the condemned mark-region
// increments and resets the scan machinery.
func (h *Heap) condemn(victims []*Increment, trigger gc.TriggerKind, st *gcState) {
	st.trigger = trigger
	st.t0, st.c0 = h.clock.Now(), h.clock.Counters
	h.clock.Advance(h.cfg.Costs.GCSetup)
	h.gcCount++
	c := &h.clock.Counters
	c.Collections++

	occupied := h.LiveEstimate()
	condemned := 0
	for _, in := range victims {
		in.condemned = true
		condemned += in.bytes
	}
	st.full = condemned >= occupied && occupied > 0
	if st.full {
		c.FullCollections++
	}
	if h.hooks.GCBegin != nil {
		h.hooks.GCBegin(gc.GCBeginInfo{
			Trigger:             trigger,
			Full:                st.full,
			CondemnedIncrements: len(victims),
			CondemnedBytes:      condemned,
			OccupiedBytes:       occupied,
		})
	}
	if h.hooks.Condemned != nil {
		for _, in := range victims {
			h.hooks.Condemned(gc.IncrementInfo{
				Belt: in.belt, Seq: in.seq, Train: in.train,
				Bytes: in.bytes, Frames: len(in.frames),
			})
		}
	}

	// Renew condemned mark-region increments (fresh seq at the back of
	// their belts, frames restamped) and pick the frames to evacuate,
	// before any slot is examined against the stamps.
	h.mrPrepareCollection(victims)
	st.reset(victims, len(h.belts))
}

// scanRoots forwards the referents of the mutator's roots. A root is not
// a slot: it has no address to remember and holds no stale pointer, so it
// keeps the condemned test and the forward to itself. Like scanSlots, it
// finds the referent's increment once and hands it to forwardFrom.
func (h *Heap) scanRoots(st *gcState) error {
	c := &h.clock.Counters
	var gcErr error
	h.roots.Walk(func(a heap.Addr) heap.Addr {
		c.RootsScanned++
		h.clock.Advance(h.cfg.Costs.RootSlot)
		var src *Increment
		if gcErr == nil {
			src = h.condemnedIn(h.space.FrameOf(a))
		}
		if src == nil {
			return a
		}
		na, err := h.forwardFrom(a, src, st, nil)
		if err != nil {
			gcErr = err
			return a
		}
		return na
	})
	return gcErr
}

// harvestRemsets collects the remembered-set roots (entries from
// non-condemned frames into condemned frames; sets between two condemned
// frames are ignored wholesale, §3.3.2), then retires every OTHER set
// touching a condemned mark-region frame. A renewed increment keeps its
// frames, so unlike a copying increment its stale entries do not die with
// the frame: the slots of its dead objects vanish at the coming sweep,
// and once their lines are reused such a slot address would point into
// the middle of some future object — consuming it then would read (or
// clobber) arbitrary live words. The trace re-inserts exactly the entries
// that still matter: survivors' outgoing pointers when they are scanned,
// pointers INTO the renewed frames when the slots holding them pass
// through rescanSlot. The harvest comes first because those entries are
// this collection's roots; the purge precedes the boot scan so it cannot
// eat entries the scan is about to insert for in-place survivors.
func (h *Heap) harvestRemsets(st *gcState) []heap.Addr {
	h.rootBuf = h.rems.AppendRoots(h.rootBuf[:0], h.frameCondemnedFn)
	if h.mr.active {
		for _, in := range st.victims {
			if !h.isMRBelt(in.belt) {
				continue
			}
			for _, f := range in.frames {
				h.rems.DeleteFrame(f)
			}
		}
	}
	return h.rootBuf
}

// scanRemsetSlots applies the slot rule to the harvested entries. Most
// are stale — the slot was overwritten since insertion — and fall through
// the rule untouched.
func (h *Heap) scanRemsetSlots(slots []heap.Addr, st *gcState) error {
	c := &h.clock.Counters
	for _, slotAddr := range slots {
		c.RemsetEntriesGC++
		h.clock.Advance(h.cfg.Costs.RemsetEntry)
		ctx := h.incrOf[h.space.FrameOf(slotAddr)]
		if err := h.scanSlots(slotAddr, h.space.SlotRun(slotAddr, 1), ctx, false, false, st); err != nil {
			return err
		}
	}
	return nil
}

// drain is the transitive closure: Cheney scans over the copying targets,
// interleaved with the mark-region gray stack (in-place survivors and
// arrivals in holey frames).
func (h *Heap) drain(st *gcState) error {
	for {
		if err := h.drainScans(st); err != nil {
			return err
		}
		advMR, err := h.drainMRQueue(st)
		if err != nil || !advMR {
			return err
		}
	}
}

// release gives the condemned increments' frames back and retires them.
// Mark-region increments are instead swept to free-line runs and rejoin
// their belts (only evacuated and emptied frames are unmapped).
func (h *Heap) release(st *gcState) {
	for _, in := range st.victims {
		if h.isMRBelt(in.belt) {
			h.mrRelease(in)
			continue
		}
		for _, f := range in.frames {
			h.releaseFrame(f)
		}
		h.retire(in)
	}
}

// releaseFrame unmaps collectible frame f and forgets everything recorded
// about it: its remembered sets, owner, stamp, fill mark and line
// metadata. The one place a frame leaves the heap, whether its increment
// was evacuated or its lines all died.
func (h *Heap) releaseFrame(f heap.Frame) {
	if h.mrFrame(f) != nil {
		h.mrDetach(f)
	}
	h.rems.DeleteFrame(f)
	h.space.UnmapFrame(f)
	h.incrOf[f] = nil
	h.stamp[f] = 0
	h.immortal[f] = false
	h.fill[f] = heap.Nil
	h.heapFrames--
	h.clock.Advance(h.cfg.Costs.FrameOp)
}

// finish closes the collection over the consistent heap: the reserve is
// recomputed, the GCEnd, Occupancy and PostGC hooks see this collection's
// deltas, and the adaptive policy runs last, after every observer.
func (h *Heap) finish(st *gcState) {
	h.recomputeReserve()
	h.inGC = false // the heap is consistent again; hooks may inspect it
	cn, c0 := &h.clock.Counters, &st.c0
	end := gc.GCEndInfo{
		Duration:          h.clock.Now() - st.t0,
		BytesCopied:       cn.BytesCopied - c0.BytesCopied,
		ObjectsCopied:     cn.ObjectsCopied - c0.ObjectsCopied,
		RemsetEntries:     cn.RemsetEntriesGC - c0.RemsetEntriesGC,
		CardsScanned:      cn.CardsScanned - c0.CardsScanned,
		BootBytesScanned:  cn.BootBytesScanned - c0.BootBytesScanned,
		BarrierSlowPaths:  cn.BarrierSlowPaths - h.slowAtLastGC,
		SurvivorBytes:     h.LiveEstimate(),
		MRObjectsMarked:   cn.MRObjectsMarked - c0.MRObjectsMarked,
		MRBytesMarked:     cn.MRBytesMarked - c0.MRBytesMarked,
		MRFramesEvacuated: cn.MRFramesEvacuated - c0.MRFramesEvacuated,
	}
	if h.hooks.GCEnd != nil {
		h.hooks.GCEnd(end)
	}
	h.slowAtLastGC = cn.BarrierSlowPaths
	if h.hooks.Occupancy != nil {
		for bi := range h.belts {
			h.hooks.Occupancy(h.beltStat(bi))
		}
	}
	if h.hooks.PostGC != nil {
		h.hooks.PostGC()
	}
	h.runTuner(st.full, end)
}

// beltStat is belt bi's occupancy as the Occupancy hook sees it.
func (h *Heap) beltStat(bi int) gc.BeltStat {
	b := h.belts[bi]
	frames := 0
	for _, in := range b.incrs {
		frames += len(in.frames)
	}
	return gc.BeltStat{Belt: bi, Increments: b.Len(), Bytes: b.Bytes(), Frames: frames}
}

// condemnedIn returns the condemned increment frame f belongs to, or nil.
func (h *Heap) condemnedIn(f heap.Frame) *Increment {
	if int(f) >= len(h.incrOf) {
		return nil
	}
	if in := h.incrOf[f]; in != nil && in.condemned {
		return in
	}
	return nil
}

// frameCondemned reports whether frame f belongs to a condemned increment.
func (h *Heap) frameCondemned(f heap.Frame) bool { return h.condemnedIn(f) != nil }

// forwardFrom copies the object at a, in src, a condemned increment, to
// its promotion target (installing a forwarding pointer), or returns the
// existing forwarding address if it was already copied. Its callers have
// found src on their way to deciding that a is to be forwarded.
// ctx is the increment holding the reference that led here (nil for
// roots and the boot image); MOS belts evacuate by referrer.
func (h *Heap) forwardFrom(a heap.Addr, src *Increment, st *gcState, ctx *Increment) (heap.Addr, error) {
	if k := h.refKernel; k != nil {
		return k.forward(a, st, ctx)
	}
	// One translation and one header decode for the from-space object,
	// whatever becomes of it.
	obj, fwd := h.space.ResolveFrom(a)
	if fwd != heap.Nil {
		return fwd, nil
	}
	// Mark-region frames keep their survivors in place (unless flagged
	// for evacuation): mark, queue for scanning, return the same address.
	size := len(obj) * heap.WordBytes
	if h.mr.active && h.mrMark(a, size) {
		return a, nil
	}
	if h.cfg.MOS && src.belt == h.mosBelt() {
		st.targets[src.belt] = h.mosDestination(src, ctx, st)
	}
	// A copy that fits the target's open frame is gcBump's own first
	// step, taken here without the call; a mark-region target accounts
	// lines as it bumps, so it always goes through gcBump.
	var dst heap.Addr
	if in := st.targets[src.belt]; !h.mr.active && in != nil && in.cursor != heap.Nil && in.cursor+heap.Addr(size) <= in.limit {
		dst = h.bumpTail(in, size)
	} else {
		var err error
		if dst, err = h.gcBump(src.belt, size, st); err != nil {
			return heap.Nil, err
		}
	}
	h.space.CopyForward(obj, a, dst)
	c := &h.clock.Counters
	c.ObjectsCopied++
	c.BytesCopied += uint64(size)
	h.clock.Advance(h.cfg.Costs.CopyByte * float64(size))
	if h.hooks.Moved != nil {
		h.hooks.Moved(a, dst)
	}
	// Copies into mark-region frames cannot rely on a Cheney scan (the
	// frame may have holes between live runs), so queue them explicitly.
	if h.mr.active && h.mrFrame(h.space.FrameOf(dst)) != nil {
		h.mr.queue = append(h.mr.queue, dst)
	}
	return dst, nil
}

// gcBump allocates size bytes in the promotion target of srcBelt, opening
// new frames (and, past a bounded target's capacity, new increments) from
// the copy reserve. It registers every target increment with the scan
// list exactly once.
func (h *Heap) gcBump(srcBelt, size int, st *gcState) (heap.Addr, error) {
	in := st.targets[srcBelt]
	if in == nil {
		in = h.resolveTarget(srcBelt, st)
	}
	for {
		if in.cursor != heap.Nil && in.cursor+heap.Addr(size) <= in.limit {
			return h.bump(in, size), nil
		}
		if !in.atCapacity() {
			if err := h.gcAddFrame(in); err != nil {
				return heap.Nil, err
			}
			continue
		}
		// Target increment full: open a fresh increment on the same
		// belt (same train, for MOS cars) for the remaining survivors.
		if h.cfg.MOS && in.belt == h.mosBelt() {
			in = h.newMOSCar(in.train)
			st.setMOSCar(in)
		} else {
			in = h.newIncrement(h.belts[in.belt])
		}
		st.targets[srcBelt] = in
		h.registerScan(in, st)
	}
}

// resolveTarget picks (or creates) the receiving increment for survivors
// of srcBelt: the youngest non-condemned increment of the promotion
// target belt, per the paper's promotion rule.
func (h *Heap) resolveTarget(srcBelt int, st *gcState) *Increment {
	tbIdx := h.belts[srcBelt].promoteTo
	if h.cfg.MOS && tbIdx == h.mosBelt() {
		// Promotion into the mature space enters the last train, or a
		// fresh train once the last one has its fill of cars.
		var in *Increment
		if lt := h.lastTrain(); lt >= 0 && len(h.trainCars(lt)) < mosCarsPerTrain {
			in = h.mosTargetCar(lt, st)
		} else {
			in = h.mosTargetCar(-1, st)
		}
		st.targets[srcBelt] = in
		return in
	}
	tb := h.belts[tbIdx]
	var in *Increment
	if y := tb.Youngest(); y != nil && !y.condemned {
		in = y
	} else {
		in = h.newIncrement(tb)
	}
	st.targets[srcBelt] = in
	h.registerScan(in, st)
	return in
}

// registerScan adds a Cheney scan pointer for target increment in,
// starting at its current bump position. Objects already present in the
// increment are not rescanned: whether they were copied there by an
// earlier collection or bump-allocated by the mutator (as in older-first
// mix, where allocation and copies share an increment), every interesting
// pointer they hold is already in a remembered set, so only objects
// copied during THIS collection need scanning.
func (h *Heap) registerScan(in *Increment, st *gcState) {
	if h.isMRBelt(in.belt) {
		// Mark-region increments have holes, so they cannot be Cheney-
		// scanned linearly; forward queues each arrival on h.mr.queue.
		return
	}
	for i := range st.scans {
		if st.scans[i].in == in {
			return
		}
	}
	s := scanState{in: in}
	if len(in.frames) == 0 {
		s.fi = 0
		s.addr = heap.Nil
	} else {
		s.fi = len(in.frames) - 1
		s.addr = in.cursor
	}
	st.scans = append(st.scans, s)
}

// drainScans runs all Cheney scan pointers to fixpoint. Each pass covers
// the scans registered before it started; scans registered mid-pass are
// picked up by the next pass (the fixpoint loop guarantees they run).
func (h *Heap) drainScans(st *gcState) error {
	for {
		progress := false
		n := len(st.scans)
		for i := 0; i < n; i++ {
			adv, err := h.advanceScan(i, st)
			if err != nil {
				return err
			}
			progress = progress || adv
		}
		if !progress {
			return nil
		}
	}
}

// advanceScan scans as many objects as are currently available to the
// idx'th scan, reporting whether it advanced at all. It walks each frame
// through its slab: one view per frame, held while the objects scanned
// forward their referents (forwarding maps frames, which moves no slab).
// The scan is re-resolved by index after every object: forwarding can
// register new scans and reallocate st.scans underneath us, as it can
// move the frame's fill mark and reallocate h.fill.
func (h *Heap) advanceScan(idx int, st *gcState) (bool, error) {
	if k := h.refKernel; k != nil {
		return k.advanceScan(idx, st)
	}
	advanced := false
	for {
		s := &st.scans[idx]
		in := s.in
		if len(in.frames) == 0 {
			return advanced, nil
		}
		if s.addr == heap.Nil {
			// Scan was registered before the increment had frames.
			s.fi = 0
			s.addr = h.space.FrameBase(in.frames[0])
		}
		f := in.frames[s.fi]
		if obj := s.addr; obj < h.fill[f] {
			slab := h.space.FrameSlab(f)
			for obj < h.fill[f] {
				slots, size := h.space.SlotsAt(slab, obj)
				if err := h.scanSlots(obj+heap.HeaderBytes, slots, in, true, true, st); err != nil {
					return advanced, err
				}
				obj += heap.Addr(size)
				st.scans[idx].addr = obj
				advanced = true
			}
			continue
		}
		if s.fi < len(in.frames)-1 {
			s.fi++
			s.addr = h.space.FrameBase(in.frames[s.fi])
			continue
		}
		return advanced, nil // caught up with the bump cursor
	}
}

// scanObject scans one object met outside a frame walk (the mark-region
// gray stack).
func (h *Heap) scanObject(obj heap.Addr, st *gcState) error {
	if k := h.refKernel; k != nil {
		return k.scanObject(obj, st)
	}
	slots, _ := h.space.RefSlots(obj)
	return h.scanSlots(obj+heap.HeaderBytes, slots, h.incrOf[h.space.FrameOf(obj)], true, true, st)
}

// scanSlots is the collector's one rule for reference slots, applied to a
// run of them through a view — slots[i] is the word at
// slotAddr+i*WordBytes, read and rewritten in place: a stale pointer is
// cleared, a condemned referent is forwarded and the slot rewritten, and
// the barrier's remembering rule is re-applied to the slot. Every walker
// of slots — remembered-set entries, the Cheney and gray-stack scans, the
// boot image, dirty cards — hands its slots to this loop; they differ in
// three things only:
//
//   - ctx, the increment holding the slots (nil for the boot image): MOS
//     belts evacuate by referrer;
//
//   - fresh, whether what remembered the slots is gone — they lie in an
//     object just copied or marked, whose frame or stamp is new, or on a
//     card just cleaned — so each is re-tested whatever it holds. A slot
//     in place is re-tested only after a forward: its old entry, if it
//     needed one, still stands;
//
//   - charge, whether the walker pays ScanSlot for each slot (the scans of
//     copied and marked objects) or has paid some other way: by the
//     entry, by the boot byte, by the card. The charge is made here, slot
//     by slot and before the slot's own forward charges its copy, because
//     the clock is a float sum: a walker's multiply for a run of slots, or
//     its charges made after the run, would change the simulated axis.
//
// The stale test is for slots of dead objects (resurrected through stale
// remembered-set entries, see mrStale); on the slots of live ones it is
// false.
//
// Each test a slot needs is made once and inline: the stale test only
// where a belt is mark-region, the condemned test by finding the
// referent's increment, which forwardFrom is then handed, and rescanSlot's
// opening test before the call, which most slots fail.
func (h *Heap) scanSlots(slotAddr heap.Addr, slots []uint32, ctx *Increment, fresh, charge bool, st *gcState) error {
	c := &h.clock.Counters
	s := h.space.FrameOf(slotAddr) // a run never leaves its frame
	for i, w := range slots {
		if charge {
			c.SlotsScanned++
			h.clock.Advance(h.cfg.Costs.ScanSlot)
		}
		switch val := heap.Addr(w); {
		case val == heap.Nil:
		case h.mr.active && h.mrStale(val):
			slots[i] = uint32(heap.Nil)
		default:
			src := h.condemnedIn(h.space.FrameOf(val))
			if src != nil {
				nv, err := h.forwardFrom(val, src, st, ctx)
				if err != nil {
					return err
				}
				slots[i] = uint32(nv)
				val = nv
			}
			if src != nil || fresh {
				if t := h.space.FrameOf(val); s != t && h.stamp[t] < h.stamp[s] {
					h.rescanSlot(slotAddr, val)
				}
			}
		}
		slotAddr += heap.WordBytes
	}
	return nil
}

// scanFrame applies the slot rule to every object in frame f up to its
// fill mark now (survivors copied in behind it belong to the Cheney scan).
// Its callers, the boot scan and the card scan, charge by the byte.
func (h *Heap) scanFrame(f heap.Frame, fresh bool, st *gcState) error {
	slab, ctx := h.space.FrameSlab(f), h.incrOf[f]
	for obj, limit := h.space.FrameBase(f), h.fill[f]; obj < limit; {
		slots, size := h.space.SlotsAt(slab, obj)
		if err := h.scanSlots(obj+heap.HeaderBytes, slots, ctx, fresh, false, st); err != nil {
			return err
		}
		obj += heap.Addr(size)
	}
	return nil
}

// scanBootImage walks every boot-image object, forwarding condemned
// referents in place and re-applying the barrier rule to the slots it
// rewrote: a no-op for the boundary barrier (boot sources are never
// remembered). Boundary-barrier collectors pay this cost at every
// collection in exchange for their cheaper barrier.
func (h *Heap) scanBootImage(st *gcState) error {
	c := &h.clock.Counters
	c.BootBytesScanned += uint64(h.boot.bytes)
	h.clock.Advance(h.cfg.Costs.BootScanByte * float64(h.boot.bytes))
	for _, f := range h.boot.frames {
		if err := h.scanFrame(f, false, st); err != nil {
			return err
		}
	}
	return nil
}

// gcAddFrame maps a frame for a copy target. Copy frames draw on the
// reserve, so the mutator budget does not apply, but two hard caps do:
//
//   - the whole-heap cap: the total may exceed the heap budget only by
//     the per-belt packing slack. Real runs reach it — survivors outgrow
//     the dynamic reserve mid-collection (50.50.100 on pseudojbb at
//     Appel's minimum heap does, ROADMAP item 3) — and a Cheney copy
//     cannot abort halfway, so the run reports OOM;
//
//   - a per-belt cap enforces other belts' permanent reservations
//     (BeltSpec.ReserveFrac): a classic fixed-size-nursery collector
//     fails — as the paper's do in Figure 6 — when survivors no longer
//     fit beside the reserved nursery.
func (h *Heap) gcAddFrame(in *Increment) error {
	limit := h.cfg.HeapBytes + (len(h.belts)+2)*h.cfg.FrameBytes
	if (h.heapFrames+1)*h.cfg.FrameBytes > limit {
		return h.oomError(0,
			fmt.Sprintf("%s: copy reserve exhausted during collection", h.cfg.Name))
	}
	if otherReserve := h.reservedElsewhere(in.belt); otherReserve > 0 {
		usable := h.cfg.HeapBytes - h.reserveBytes
		beltCap := int((1-otherReserve)*float64(usable))/h.cfg.FrameBytes + 1
		held := 0
		for _, incr := range h.belts[in.belt].incrs {
			if !incr.condemned { // condemned increments are being evacuated
				held += len(incr.frames)
			}
		}
		if held+1 > beltCap {
			return h.oomError(0,
				fmt.Sprintf("%s: survivors exceed the space left by reserved belts", h.cfg.Name))
		}
	}
	h.addFrame(in)
	return nil
}
