package core

import (
	"fmt"

	"beltway/internal/heap"
)

// NewOn builds a heap of cfg on what donor leaves behind: donor is
// released, and its scaffold goes straight to the new heap rather than
// through the process-wide list, where it need not be the one on top. A
// nil donor builds the heap from nothing, whatever the list holds. Tests
// use it to hold a warm heap to a cold one.
func NewOn(cfg Config, types *heap.Registry, donor *Heap) (*Heap, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	sc := newScaffold()
	if donor != nil {
		sc = donor.dismantle()
	}
	return newHeap(cfg, types, sc), nil
}

// SpareScaffolds returns how many released heaps' scaffolds wait for New.
func SpareScaffolds() int { return scaffolds.Len() }

// DropSpareScaffolds empties the list New takes scaffolds from.
func DropSpareScaffolds() {
	for {
		if _, ok := scaffolds.Take(); !ok {
			return
		}
	}
}

// FrameTables is a heap's per-frame bookkeeping as plain data, for
// comparing two heaps: Owner names each frame's increment by belt and
// seq ("" for none), MRFrames the frames with line metadata attached.
type FrameTables struct {
	Stamp    []uint64
	Owner    []string
	Immortal []bool
	Fill     []heap.Addr
	Cards    []bool
	MRFrames []heap.Frame
	MREvac   []bool
}

// FrameTables returns a copy of h's per-frame tables (an empty table is
// nil in it, however much capacity the heap's has).
func (h *Heap) FrameTables() FrameTables {
	ft := FrameTables{
		Stamp:    append([]uint64(nil), h.stamp...),
		Immortal: append([]bool(nil), h.immortal...),
		Fill:     append([]heap.Addr(nil), h.fill...),
		Cards:    append([]bool(nil), h.cards...),
		MREvac:   append([]bool(nil), h.mr.evac...),
	}
	for _, in := range h.incrOf {
		owner := ""
		if in != nil {
			owner = fmt.Sprintf("%d/%d", in.belt, in.seq)
		}
		ft.Owner = append(ft.Owner, owner)
	}
	for f, fs := range h.mr.frames {
		if fs != nil {
			ft.MRFrames = append(ft.MRFrames, heap.Frame(f))
		}
	}
	return ft
}
