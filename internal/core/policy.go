package core

import (
	"beltway/internal/gc"
)

// nurseryMinBytes is the Appel-style "small fixed threshold" (§3.1):
// when the allocation belt's occupancy falls below it, collecting the
// nursery again would free too little, so the heap is considered full and
// the collection cascades to the next belt.
func (h *Heap) nurseryMinBytes() int {
	min := 2 * h.cfg.FrameBytes
	if frac := h.cfg.HeapBytes / 64; frac > min {
		min = frac
	}
	return min
}

// collectForAlloc runs one collection chosen by the configuration's
// scheduling rules, in response to a failed allocation.
func (h *Heap) collectForAlloc() error {
	victims := h.chooseVictims()
	if len(victims) == 0 {
		// Nothing on the belts. Under the ladder an unswept LOS may
		// still hold reclaimable bytes — an emergency (all-increments)
		// collection is the only trigger that sweeps it on demand.
		if h.cfg.Degrade && len(h.los.objects) > 0 {
			return h.emergencyCollect()
		}
		return h.oomError(0, h.cfg.Name+": heap full with nothing collectible")
	}
	return h.collectSettled(victims, gc.TriggerHeapFull)
}

// collectSettled is collect for every caller but the emergency collection
// itself: once the collection is over — a safe point — it runs the
// emergency collection a mid-collection overdraft asked for.
func (h *Heap) collectSettled(victims []*Increment, trigger gc.TriggerKind) error {
	err := h.collect(victims, trigger)
	if err == nil && h.deg.pendingEmergency {
		err = h.emergencyCollect()
	}
	return err
}

// beltsBelow returns every increment of the belts below k, lowest belt
// first: what the stamp discipline condemns along with an increment of
// belt k (see chooseVictims). beltsBelow(len(h.belts)) is every increment
// there is.
func (h *Heap) beltsBelow(k int) []*Increment {
	var victims []*Increment
	for _, b := range h.belts[:k] {
		victims = append(victims, b.incrs...)
	}
	return victims
}

// chooseVictims picks the condemned set for a heap-full collection.
//
// The FIFO/stamp discipline makes pointers from lower belts (and from
// older increments of the same belt) into a collected increment
// *unremembered*, so an increment of belt k may only be collected when
// every lower belt is condemned with it (the paper keeps lower belts
// empty at that point; condemning their dregs together is the paper's
// §3.3.2 combining optimization and costs nothing when they are empty).
//
// The cascade is therefore: find the lowest belt whose occupancy is worth
// a collection (allocation belt: the Appel threshold; higher belts: any
// non-empty increment); condemn everything below it plus its oldest
// increment.
func (h *Heap) chooseVictims() []*Increment {
	if h.deg.remsetOverflow {
		// Dropped remembers make any incremental condemned set unsound —
		// a live object could be reclaimed because the pointer to it was
		// lost. Condemn everything until a full collection (plus the boot
		// and LOS scans in collect) re-establishes the invariant.
		return h.beltsBelow(len(h.belts))
	}
	if h.cfg.OlderFirst {
		return h.chooseVictimsOF()
	}
	for bi, b := range h.belts {
		if b.Len() == 0 {
			continue
		}
		worth := h.cfg.FrameBytes
		if bi == h.allocBelt {
			worth = h.nurseryMinBytes()
		}
		if b.Bytes() >= worth || bi == len(h.belts)-1 {
			// Condemn this belt's oldest increment plus all of every
			// lower belt. A MOS top belt instead condemns the lowest
			// car — or the whole lowest train when it is dead.
			victims := h.beltsBelow(bi)
			if h.cfg.MOS && bi == h.mosBelt() {
				victims = append(victims, h.chooseVictimsMOS()...)
			} else {
				victims = append(victims, b.Oldest())
			}
			return h.escalateForReservations(bi, victims)
		}
		// Belt not worth collecting alone: fold its increments into the
		// higher collection we cascade to.
	}
	// All belts below threshold but the heap is full: last resort, full
	// collection of everything non-empty.
	return h.beltsBelow(len(h.belts))
}

// escalateForReservations widens the condemned set when the promotion
// target belt could not absorb the worst-case survivors because other
// belts' permanent reservations (BeltSpec.ReserveFrac) cap its size.
// This is the classic generational rule — when the mature space cannot
// take the nursery's survivors, the heap is considered full and the
// whole heap is collected — generalized to any belt chain.
func (h *Heap) escalateForReservations(k int, victims []*Increment) []*Increment {
	for {
		t := h.belts[k].promoteTo
		if t == k {
			return victims
		}
		otherReserve := h.reservedElsewhere(t)
		if otherReserve == 0 {
			return victims
		}
		condemnedSet := make(map[*Increment]bool, len(victims))
		condemnedBytes := 0
		for _, in := range victims {
			condemnedSet[in] = true
			condemnedBytes += in.bytes
		}
		held := 0
		for _, in := range h.belts[t].incrs {
			if !condemnedSet[in] {
				held += len(in.frames) * h.cfg.FrameBytes
			}
		}
		beltCap := int((1 - otherReserve) * float64(h.cfg.HeapBytes-h.reserveBytes))
		if held+condemnedBytes <= beltCap {
			return victims
		}
		// Escalate: condemn the target belt in full as well.
		for _, in := range h.belts[t].incrs {
			if !condemnedSet[in] {
				victims = append(victims, in)
			}
		}
		k = t
	}
}

// reservedElsewhere sums the permanent reservations (BeltSpec.ReserveFrac)
// of every belt but bi: the share of usable memory belt bi may not grow
// into.
func (h *Heap) reservedElsewhere(bi int) float64 {
	sum := 0.0
	for i, b := range h.belts {
		if i != bi {
			sum += b.spec.ReserveFrac
		}
	}
	return sum
}

// chooseVictimsOF implements BOF scheduling (§3.1): collect the oldest
// increment ("window") of the allocation belt A; when A is empty, flip
// the belts — the copy belt C becomes the new A — and collect its oldest
// increment.
func (h *Heap) chooseVictimsOF() []*Increment {
	a := h.belts[h.allocBelt]
	if a.Len() == 0 && h.belts[1-h.allocBelt].Len() > 0 {
		// A is empty: flip, making the copy belt the new allocation
		// belt. The flip is only legal with A empty — pointers from A
		// into C are unremembered, so C may never be collected while A
		// holds objects.
		h.flipBelts()
		a = h.belts[h.allocBelt]
	}
	if old := a.Oldest(); old != nil {
		// Collecting A's oldest alone is safe: pointers from C and from
		// younger A increments into it carry higher stamps and are
		// remembered.
		return []*Increment{old}
	}
	return nil
}

// flipBelts swaps the allocation and copy roles of the two BOF belts and
// renumbers every live frame's collection-order stamp under the new
// priorities. The flip happens only when the retiring allocation belt is
// empty, so no remembered-set entry becomes unsound: the surviving
// frames keep their relative FIFO order within their belt, and the new
// copy belt is empty.
func (h *Heap) flipBelts() {
	h.closeWindow()
	other := 1 - h.allocBelt
	h.allocBelt = other
	h.belts[h.allocBelt].priority = 0
	h.belts[1-h.allocBelt].priority = 1
	h.belts[h.allocBelt].promoteTo = 1 - h.allocBelt
	h.belts[1-h.allocBelt].promoteTo = h.allocBelt
	for _, b := range h.belts {
		for _, in := range b.incrs {
			for _, f := range in.frames {
				h.stamp[f] = stampOf(b.priority, in.seq)
			}
		}
	}
	if h.hooks.Flip != nil {
		h.hooks.Flip(h.allocBelt, h.rems.TotalEntries())
	}
}

// pollRemsetTrigger implements the remset trigger (§3.3.3): when the
// number of remembered entries targeting a belt's oldest increment
// exceeds the threshold, collect it (with the required lower belts) even
// though the heap is not full. Returns true if a collection ran.
func (h *Heap) pollRemsetTrigger() (bool, error) {
	th := h.cfg.RemsetThreshold
	if h.deg.remsetOverflow {
		// Entry counts are meaningless while inserts have been dropped,
		// and every collection condemns everything anyway.
		return false, nil
	}
	if th <= 0 || h.rems.TotalEntries() <= th {
		return false, nil
	}
	for bi, b := range h.belts {
		old := b.Oldest()
		if old == nil {
			continue
		}
		// h.trigTargetFn is built once at construction and parameterized
		// through trigOld, so the allocation-path poll builds no closure.
		h.trigOld = old
		if h.rems.EntriesTargeting(h.trigTargetFn) > th {
			return true, h.collectSettled(append(h.beltsBelow(bi), old), gc.TriggerRemset)
		}
	}
	return false, nil
}

// Collect implements gc.Collector: a forced collection. With full set,
// every increment on every belt is condemned (the whole-heap collection a
// complete configuration occasionally performs); otherwise the scheduling
// policy picks as it would on heap-full.
func (h *Heap) Collect(full bool) error {
	if full {
		// An empty condemned set is still a valid full collection when
		// large objects exist: the trace marks and the sweep reclaims.
		if h.numIncrements() == 0 && len(h.los.objects) == 0 {
			return nil
		}
		return h.collectSettled(h.beltsBelow(len(h.belts)), gc.TriggerForcedFull)
	}
	victims := h.chooseVictims()
	if len(victims) == 0 {
		return nil // nothing collectible: a forced collection is a no-op
	}
	return h.collectSettled(victims, gc.TriggerForced)
}
