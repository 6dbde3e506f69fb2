package core

import (
	"fmt"

	"beltway/internal/heap"
)

// CheckInvariants walks the entire heap and verifies the structural
// invariants the collector relies on. It is expensive (a full heap scan)
// and exists for tests; production paths never call it.
//
// Checked invariants:
//
//  1. Frame bookkeeping: every frame of every increment is mapped,
//     carries the owning increment in incrOf, and carries the stamp
//     derived from its belt priority and increment seq; immortal frames
//     carry the maximal stamp.
//
//  2. Increment bookkeeping: bump cursor within the last frame, byte
//     accounting equal to the sum of formatted object sizes, FIFO seq
//     strictly increasing along each belt.
//
//  3. The remembered-set invariant (the heart of §3.3.1): for every
//     reference slot holding a pointer whose target frame would be
//     collected before the slot's frame (stamp(target) < stamp(source)),
//     an entry for that slot must be present in the (source, target)
//     remembered set — except boot-image sources under the boundary
//     barrier, which are covered by the full boot scan instead.
//
//  4. No object is marked forwarded outside a collection.
//
//  5. An open allocation window names the increment tryAlloc would bump
//     into: the allocation belt's youngest, a copying increment with an
//     open frame, the time-to-die trigger not due.
//
//  6. A spare increment (kept by retire for reuse) is unreachable: it owns
//     no frames, is on no belt, owns no frame in incrOf, and is neither
//     the window, the remset trigger's target, nor a promotion target or
//     destination car left in gcState.
func (h *Heap) CheckInvariants() error {
	if h.inGC {
		return fmt.Errorf("core: CheckInvariants during collection")
	}
	if in := h.win; in != nil {
		belt := h.belts[h.allocBelt]
		if in != belt.Youngest() || in.cursor == heap.Nil || h.isMRBelt(in.belt) || h.ttdDue(belt) {
			return fmt.Errorf("core: allocation window open on %v, where tryAlloc would not bump", in)
		}
	}
	if err := h.checkSpares(); err != nil {
		return err
	}

	// 1 & 2: frames and increments.
	for bi, b := range h.belts {
		var prevSeq int64 = -1
		for _, in := range b.incrs {
			if in.belt != bi {
				return fmt.Errorf("core: %v on belt %d records belt %d", in, bi, in.belt)
			}
			if int64(in.seq) <= prevSeq {
				return fmt.Errorf("core: belt %d seq not increasing: %d after %d", bi, in.seq, prevSeq)
			}
			prevSeq = int64(in.seq)
			if in.condemned {
				return fmt.Errorf("core: %v condemned outside a collection", in)
			}
			wantStamp := stampOf(b.priority, in.seq)
			bytes := 0
			for fi, f := range in.frames {
				if !h.space.Mapped(f) {
					return fmt.Errorf("core: %v frame %d unmapped", in, f)
				}
				if h.incrOf[f] != in {
					return fmt.Errorf("core: frame %d owner mismatch", f)
				}
				if h.stamp[f] != wantStamp {
					return fmt.Errorf("core: frame %d stamp %#x, want %#x", f, h.stamp[f], wantStamp)
				}
				base := h.space.FrameBase(f)
				if fs := h.mrFrame(f); fs != nil {
					// Mark-region frame: occupancy is line-granular, the
					// bump window may sit in any frame's hole (so no
					// cursor==fill relation), and objects are found
					// through the start bitmap, not a linear walk.
					var err error
					fs.ForEachObject(func(off int) bool {
						obj := base + heap.Addr(off)
						if h.space.Forwarded(obj) {
							err = fmt.Errorf("core: %v forwarded outside GC", obj)
							return false
						}
						if last := off + h.space.SizeOf(obj) - 1; fs.Geometry().LineOf(last) >= fs.Lines() {
							err = fmt.Errorf("core: %v overruns frame %d", obj, f)
							return false
						}
						return true
					})
					if err != nil {
						return err
					}
					bytes += fs.UsedLines() * h.mr.geo.LineBytes
					continue
				}
				fill := h.fill[f]
				if fill < base || fill > h.space.FrameLimit(f) {
					return fmt.Errorf("core: frame %d fill %v out of range", f, fill)
				}
				if fi == len(in.frames)-1 && in.cursor != fill {
					return fmt.Errorf("core: %v cursor %v != fill %v of last frame", in, in.cursor, fill)
				}
				var err error
				h.space.WalkObjects(base, fill, func(obj heap.Addr) bool {
					if h.space.Forwarded(obj) {
						err = fmt.Errorf("core: %v forwarded outside GC", obj)
						return false
					}
					bytes += h.space.SizeOf(obj)
					return true
				})
				if err != nil {
					return err
				}
			}
			if bytes != in.bytes {
				return fmt.Errorf("core: %v accounts %d bytes, found %d", in, in.bytes, bytes)
			}
		}
	}

	// 3: the remembered-set invariant, over heap and boot objects.
	var err error
	h.ForEachObject(func(obj heap.Addr) bool {
		n := h.space.NumRefs(obj)
		for i := 0; i < n; i++ {
			val := h.space.GetRef(obj, i)
			if val == heap.Nil {
				continue
			}
			s := h.space.FrameOf(h.space.RefSlotAddr(obj, i)) // slot's frame (spans differ)
			t := h.space.FrameOf(val)
			if s == t || h.stamp[t] >= h.stamp[s] {
				continue // not interesting
			}
			if h.cfg.Barrier == BoundaryBarrier && h.immortal[s] {
				continue // covered by the boot scan
			}
			slot := h.space.RefSlotAddr(obj, i)
			if h.cfg.Barrier == CardBarrier {
				if !h.cards[uint32(slot)>>cardShift] {
					err = fmt.Errorf("core: interesting pointer at %v slot %d not on a dirty card", obj, i)
					return false
				}
				continue
			}
			if !h.rems.Contains(s, t, slot) {
				err = fmt.Errorf("core: missing remset entry: %v slot %d (%v in frame %d, stamp %#x) -> %v (frame %d, stamp %#x)",
					obj, i, slot, s, h.stamp[s], val, t, h.stamp[t])
				return false
			}
		}
		return true
	})
	return err
}

// checkSpares is invariant 6: nothing the heap reads reaches an increment
// on the spare list, so takeIncrement may hand it out as new.
func (h *Heap) checkSpares() error {
	spare := make(map[*Increment]bool, len(h.spare))
	for _, in := range h.spare {
		if spare[in] {
			return fmt.Errorf("core: spare %v kept twice", in)
		}
		spare[in] = true
		if len(in.frames) != 0 {
			return fmt.Errorf("core: spare %v owns frames %v", in, in.frames)
		}
	}
	for _, b := range h.belts {
		for _, in := range b.incrs {
			if spare[in] {
				return fmt.Errorf("core: spare %v is on belt %d", in, b.index)
			}
		}
	}
	for f, in := range h.incrOf {
		if spare[in] {
			return fmt.Errorf("core: frame %d is owned by spare %v", f, in)
		}
	}
	held := append([]*Increment{h.win, h.trigOld}, h.gcs.targets...)
	for _, d := range h.gcs.mosDest {
		held = append(held, d.car)
	}
	for _, in := range held {
		if spare[in] {
			return fmt.Errorf("core: spare %v is the allocation window, the remset trigger's target or a promotion target", in)
		}
	}
	return nil
}
