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

// scanDirtyCards is the collection-time half of card marking: every
// uncollected frame, every boot frame and every large object with a dirty
// card is walked whole and its cards cleaned; the slot rule, to which
// every slot on a cleaned card is fresh, re-dirties the card of a slot
// that still holds an interesting pointer (one whose target frame is
// collected before the slot's frame — under the maximal stamp of a large
// object, every pointer into the heap).
func (h *Heap) scanDirtyCards(st *gcState) error {
	for _, b := range h.belts {
		for _, in := range b.incrs {
			if in.condemned {
				continue
			}
			for _, f := range in.frames {
				if h.cleanCards(f, 1) {
					if err := h.scanFrame(f, true, st); err != nil {
						return err
					}
				}
			}
		}
	}
	for _, f := range h.boot.frames {
		if h.cleanCards(f, 1) {
			if err := h.scanFrame(f, true, st); err != nil {
				return err
			}
		}
	}
	for _, lo := range h.los.objects {
		if h.cleanCards(h.space.FrameOf(lo.addr), lo.frames) {
			if err := h.scanLarge(lo, true, false, st); err != nil {
				return err
			}
		}
	}
	return nil
}

// cleanCards cleans the cards of the n frames from f on, charging the
// scan of each dirty one, and reports whether any was dirty.
func (h *Heap) cleanCards(f heap.Frame, n int) bool {
	base := int(uint32(h.space.FrameBase(f)) >> cardShift)
	dirty := false
	for i, card := range h.cards[base : base+n*h.cardsPerFrame()] {
		if card {
			dirty = true
			h.clock.Counters.CardsScanned++
			h.clock.Advance(h.cfg.Costs.CardScanByte * float64(1<<cardShift))
			h.cards[base+i] = false
		}
	}
	return dirty
}
