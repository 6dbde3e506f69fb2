package core

import "beltway/internal/heap"

// Card marking (paper §5, Related Work): the classic alternative to
// remembered sets. The heap is divided into small cards; the write
// barrier unconditionally dirties the card containing the updated slot —
// "a fast write-barrier (typically two or three machine instructions)" —
// and each collection must scan every dirty card of every uncollected
// frame to find the interesting pointers, paying at collection time what
// the remset barrier pays at mutation time.
//
// The paper's collectors use remsets, partly because Jikes RVM's object
// layout made card scanning hard and partly because "earlier experience
// suggests that remsets are generally faster"; the CardBarrier
// configuration exists so that trade-off can be measured (see the
// ablation experiment and BenchmarkAblationBarriers).

// cardShift gives 512-byte cards, a typical choice.
const cardShift = 9

// cardsPerFrame returns the number of cards in one frame.
func (h *Heap) cardsPerFrame() int { return h.cfg.FrameBytes >> cardShift }

// ensureCards grows the card table to cover frame f.
func (h *Heap) ensureCards(f heap.Frame) {
	limit := (int(f) + 1) << (h.space.FrameShift() - cardShift)
	for len(h.cards) < limit {
		h.cards = append(h.cards, false)
	}
}

// clearFrameCards resets the cards of a freshly mapped frame.
func (h *Heap) clearFrameCards(f heap.Frame) {
	base := int(h.space.FrameBase(f)) >> cardShift
	for i := 0; i < h.cardsPerFrame(); i++ {
		h.cards[base+i] = false
	}
}

// markCard dirties the card containing slot.
func (h *Heap) markCard(slot heap.Addr) {
	h.cards[uint32(slot)>>cardShift] = true
}

// scanDirtyCards is the collection-time half of card marking: for every
// uncollected frame with dirty cards, walk its objects and process the
// reference slots lying in dirty cards, forwarding condemned referents.
// A card is cleaned unless it still holds an interesting pointer (one
// whose target frame is collected before the slot's frame).
func (h *Heap) scanDirtyCards(st *gcState) error {
	c := &h.clock.Counters

	scanFrame := func(f heap.Frame) error {
		if !h.space.Mapped(f) {
			return nil
		}
		base := h.space.FrameBase(f)
		fill := h.fill[f]
		if fill <= base {
			return nil
		}
		// Quick reject: any dirty card in this frame?
		cardBase := int(uint32(base) >> cardShift)
		dirty := false
		for i := 0; i < h.cardsPerFrame(); i++ {
			if h.cards[cardBase+i] {
				dirty = true
				break
			}
		}
		if !dirty {
			return nil
		}
		// Clean all cards; re-dirty the ones that keep interesting
		// pointers after this collection.
		for i := 0; i < h.cardsPerFrame(); i++ {
			if h.cards[cardBase+i] {
				c.CardsScanned++
				h.clock.Advance(h.cfg.Costs.CardScanByte * float64(1<<cardShift))
				h.cards[cardBase+i] = false
			}
		}
		slab := h.space.FrameSlab(f)
		for obj := base; obj < fill; {
			slots, size := h.space.SlotsAt(slab, obj)
			slot := obj + heap.HeaderBytes
			for i, w := range slots {
				if val := heap.Addr(w); val != heap.Nil {
					if h.isCondemned(val) {
						nv, err := h.forward(val, st, h.incrOf[f])
						if err != nil {
							return err
						}
						slots[i] = uint32(nv)
						val = nv
					} else {
						h.markLOS(val)
					}
					// Keep the card dirty while it holds interesting
					// pointers for FUTURE collections.
					s, t := h.space.FrameOf(slot), h.space.FrameOf(val)
					if s != t && h.stamp[t] < h.stamp[s] {
						h.markCard(slot)
					}
				}
				slot += heap.WordBytes
			}
			obj += heap.Addr(size)
		}
		return nil
	}

	// All collectible frames not being collected, then the boot image.
	for _, b := range h.belts {
		for _, in := range b.incrs {
			if in.condemned {
				continue
			}
			for _, f := range in.frames {
				if err := scanFrame(f); err != nil {
					return err
				}
			}
		}
	}
	for _, f := range h.boot.frames {
		if err := scanFrame(f); err != nil {
			return err
		}
	}
	// Large objects span frames; scan the whole object when any card of
	// its span is dirty. Cards holding heap pointers stay dirty (every
	// LOS-to-heap pointer is "interesting" under the maximal LOS stamp).
	for _, lo := range h.los.objects {
		f0 := h.space.FrameOf(lo.addr)
		cardBase := int(uint32(h.space.FrameBase(f0)) >> cardShift)
		nCards := lo.frames * h.cardsPerFrame()
		dirty := false
		for i := 0; i < nCards; i++ {
			if h.cards[cardBase+i] {
				dirty = true
				c.CardsScanned++
				h.clock.Advance(h.cfg.Costs.CardScanByte * float64(1<<cardShift))
				h.cards[cardBase+i] = false
			}
		}
		if !dirty {
			continue
		}
		slot := lo.addr + heap.HeaderBytes
		for n := h.space.NumRefs(lo.addr); n > 0; {
			slots := h.space.SlotRun(slot, n)
			n -= len(slots)
			for i, w := range slots {
				if val := heap.Addr(w); val != heap.Nil {
					if h.isCondemned(val) {
						nv, err := h.forward(val, st, nil)
						if err != nil {
							return err
						}
						slots[i] = uint32(nv)
						val = nv
					} else {
						h.markLOS(val)
					}
					if !h.inLOS(val) && !h.immortal[h.space.FrameOf(val)] {
						h.markCard(slot) // heap pointer: keep discoverable
					}
				}
				slot += heap.WordBytes
			}
		}
	}
	return nil
}
