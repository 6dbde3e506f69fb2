package core

// recomputeReserve recalculates the dynamic conservative copy reserve
// (§3.3.4): the reserve must accommodate the survivors of the worst-case
// next collection, i.e. the largest condemned set the scheduling policy
// could choose, assuming everything in it survives.
//
// The scheduling cascade (chooseVictims) condemns, for some belt k, all
// of every belt below k plus belt k's oldest increment — and it reaches
// belt k only when each lower belt j is under its collection-worthiness
// threshold worth(j). The worst-case copy volume of a collection at belt
// k is therefore
//
//	need(k) = sum over j<k of min(occ(j), worth(j)) + occ(oldest(k))
//
// and the reserve is max over k of need(k), recomputed after every
// collection and every mutator frame map, so it tracks occupancy
// continuously. Two refinements from the paper:
//
//   - "the copy reserve is either the largest increment size, or the
//     largest potential increment occupancy": an analytic floor of
//     frac/(1+frac)*heap covers bounded increments that have not been
//     created yet (the fixed point of reserve = frac*(heap-reserve));
//
//   - "the copy reserve must be slightly more generous because the copied
//     data may not pack as well as the original data" (footnote 1): one
//     frame of padding per belt absorbs bump-pointer tail waste.
//
// For BSS and BA2 this converges to the classic half-heap reserve as the
// unbounded increments fill; for Beltway X.X.100 it stays near one small
// increment until the third belt grows, then grows toward half the heap
// and falls back after the third belt is collected — exactly the
// behaviour §3.3.4 describes.
func (h *Heap) recomputeReserve() {
	if h.cfg.FixedHalfReserve {
		h.reserveBytes = h.cfg.HeapBytes / 2
		return
	}
	reserve := 0

	if h.cfg.OlderFirst {
		// BOF collections condemn exactly one window (the allocation
		// belt's oldest increment; after a flip, the other belt's).
		for _, b := range h.belts {
			if old := b.Oldest(); old != nil && old.bytes > reserve {
				reserve = old.bytes
			}
		}
	} else {
		lower := 0 // sum of min(occ(j), worth(j)) over belts below k
		for k, b := range h.belts {
			// A mark-region increment copies only its evacuation
			// candidates, so it charges the reserve mrCopyBound, not its
			// full occupancy.
			if old := b.Oldest(); old != nil {
				if need := lower + h.mrCopyBound(old); need > reserve {
					reserve = need
				}
			}
			occ := b.Bytes()
			if h.isMRBelt(k) {
				occ = h.mrBeltCopyBound(b)
			}
			worth := h.cfg.FrameBytes
			if k == h.allocBelt {
				worth = h.nurseryMinBytes()
			}
			if occ < worth {
				lower += occ
			} else {
				lower += worth
			}
		}
	}

	// Analytic floor for bounded-increment belts that may not exist yet.
	for bi, b := range h.belts {
		if f := b.spec.IncrementFrac; f < 1.0 {
			if h.isMRBelt(bi) && !h.mrEvacuatesAll(bi) {
				// Mark-region increments copy at most MRDefragFrac of
				// their frames' worth; with defrag off they copy nothing.
				f *= h.cfg.MRDefragFrac
				if f == 0 {
					continue
				}
			}
			floor := int(f / (1.0 + f) * float64(h.cfg.HeapBytes))
			if len(h.belts) > 1 {
				floor += h.nurseryMinBytes() // cascaded nursery dregs
			}
			if floor > reserve {
				reserve = floor
			}
		}
	}

	// Packing slack (footnote 1): one frame per belt.
	reserve += len(h.belts) * h.cfg.FrameBytes

	if max := h.cfg.HeapBytes / 2; reserve > max {
		// Beyond half the heap the configuration has degenerated to
		// semi-space; occupancy can never exceed heap - reserve, so the
		// condemned set is bounded by the other half.
		reserve = max
	}
	h.reserveBytes = reserve
}
