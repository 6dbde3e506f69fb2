package core

import "beltway/internal/heap"

// WriteRef implements gc.Collector: the mutator's barriered pointer
// store. This is paper Figure 4 translated from Jikes RVM Java:
//
//	int s = (source >>> FRAME_SIZE_LOG);
//	int t = (target >>> FRAME_SIZE_LOG);
//	if ((s != t) && (Belt.collect_[t] < Belt.collect_[s])) {
//	    int rsidx = (s << REMSET_SHIFT) | t;
//	    GCTk_RememberedSet.insert(rsidx, source);
//	}
//
// A pointer is remembered only when its target frame would be collected
// before its source frame (the barrier is unidirectional with respect to
// frames); frames of the same increment share a stamp, so intra-increment
// pointers are never remembered.
func (h *Heap) WriteRef(obj heap.Addr, slot int, val heap.Addr) {
	c := &h.clock.Counters
	c.PointerStores++

	// Resolve and validate the slot once; the store below is then a
	// write through the resolved word.
	slotAddr, word := h.space.RefSlot(obj, slot)

	if h.cfg.Barrier == CardBarrier {
		// Card marking: no test at all — dirty the slot's card and
		// store. All discovery work is deferred to collection time.
		h.markCard(slotAddr)
		h.clock.Advance(h.cfg.Costs.CardMark)
		*word = uint32(val)
		return
	}

	cost := h.cfg.Costs.BarrierFast
	if h.cfg.Barrier == BoundaryBarrier {
		// The classic boundary test is 2-3 instructions; model it as
		// half the frame barrier's fast path.
		cost = h.cfg.Costs.BarrierFast * 0.5
	}

	if val != heap.Nil {
		// Key by the SLOT's frame, not the object header's: they differ
		// only for frame-spanning large objects, where the slot's frame
		// is the one whose remembered sets are consulted at collection.
		s := h.space.FrameOf(slotAddr)
		t := h.space.FrameOf(val)
		filtered := false
		if h.cfg.NurseryFilter && h.incrOf[s] != nil && h.incrOf[s].belt == h.allocBelt &&
			h.belts[h.allocBelt].Len() == 1 {
			// §3.3.2: with a single bounded nursery increment, stores
			// whose source is in the nursery can be filtered before the
			// stamp comparison — they would never be remembered anyway,
			// since the sole nursery increment has the lowest stamp.
			// The paper notes this "foregoes older-first behavior
			// within the nursery": with MULTIPLE nursery increments
			// (e.g. under the time-to-die trigger), stores from a
			// younger nursery increment into an older one ARE
			// interesting, so the filter turns itself off whenever the
			// nursery holds more than one increment.
			filtered = true
			cost *= 0.75
		}
		if !filtered && s != t && h.stamp[t] < h.stamp[s] {
			if h.cfg.Barrier == BoundaryBarrier && h.immortal[s] {
				// The boundary barrier does not remember boot-image
				// stores; the boot image is scanned at every collection
				// instead (see scanBootImage).
			} else {
				c.BarrierSlowPaths++
				cost += h.cfg.Costs.BarrierSlow
				h.dbgBarrierHits++
				if n := h.cfg.DebugDropBarrierEvery; n > 0 && h.dbgBarrierHits%n == 0 {
					// Mutation-test knob: forget this pointer. See
					// Config.DebugDropBarrierEvery. Deliberately does NOT
					// enter degraded mode — the oracle must still catch it.
				} else if fh := h.cfg.Faults; fh != nil && fh.RemsetInsert != nil && !fh.RemsetInsert() {
					// Injected capped-remset drop: soundness is repaired by
					// the condemn-everything degradation mode.
					h.remsetCapHit()
				} else if h.rems.Insert(s, t, slotAddr) {
					c.RemsetInserts++
				}
			}
		}
	}
	h.clock.Advance(cost)
	*word = uint32(val)
}

// ReadRef implements gc.Collector.
func (h *Heap) ReadRef(obj heap.Addr, slot int) heap.Addr {
	h.clock.Advance(h.cfg.Costs.FieldAccess)
	_, word := h.space.RefSlot(obj, slot)
	return heap.Addr(*word)
}

// rescanSlot re-applies the barrier's remembering rule to a slot the
// collector just wrote (a forwarded pointer, or a pointer inside a copied
// object). Copying moves objects to frames with new stamps, so the set of
// "interesting" pointers must be re-derived during collection; this is
// what keeps the remset invariant — every pointer whose target frame is
// collected before its source frame is remembered — across promotions.
func (h *Heap) rescanSlot(slotAddr, val heap.Addr) {
	if val == heap.Nil {
		return
	}
	s := h.space.FrameOf(slotAddr)
	t := h.space.FrameOf(val)
	if s != t && h.stamp[t] < h.stamp[s] {
		switch {
		case h.cfg.Barrier == CardBarrier:
			h.markCard(slotAddr)
		case h.cfg.Barrier == BoundaryBarrier && h.immortal[s]:
			// boot image rescanned wholesale by boundary collectors
		default:
			if h.rems.Insert(s, t, slotAddr) {
				h.clock.Counters.RemsetInserts++
			}
		}
	}
}
