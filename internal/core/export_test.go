package core

import (
	"fmt"

	"beltway/internal/heap"
)

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
