package heap

import "fmt"

// Slab-resident access: the primitives the collector's trace and the
// mutator's field accessors are built on. Each translates an address
// (frame lookup, alignment and mapping check) once and decodes a header
// once, then hands back a view into the frame's slab — a []uint32 or a
// *uint32 — through which the caller reads and rewrites words in place.
// They fault with the panics Word/SetWord/Header/SetForwarding raise for
// the same bad access.
//
// Lifetime of a view. A frame's slab never moves while the frame stays
// mapped: MapFrame and MapSpan only append to the frame table, so a view
// may be held across allocation, and across a collection's forwarding
// (which maps copy-target frames). UnmapFrame hands the slab to the pool,
// from where it is cleared and given to the next frame mapped, and
// Release hands it to another Space altogether: a view must never be
// held across either. The collector unmaps only in its release phase,
// after the trace has dropped every view.

// FrameSlab returns the word slab of mapped frame f: element i is the
// word at FrameBase(f)+i*WordBytes. It faults as a read of the frame's
// first word would.
func (s *Space) FrameSlab(f Frame) []uint32 {
	if int(f) >= len(s.frames) || s.frames[f] == nil {
		s.fault(s.FrameBase(f), false)
	}
	return s.frames[f]
}

// Slot resolves a once and returns the word there, for a read followed
// by a rewrite of the same slot (a remembered-set entry). It faults as
// Word does.
func (s *Space) Slot(a Addr) *uint32 {
	slab, off := s.slabAt(a, false)
	return &slab[off]
}

// SlotRun returns a view of the n words starting at a, cut short at the
// end of a's frame. The reference slots of a frame-spanning large object
// are walked as one run per frame; for every other object the first run
// is all of them.
func (s *Space) SlotRun(a Addr, n int) []uint32 {
	slab, off := s.slabAt(a, false)
	end := uint32(len(slab))
	if uint32(n) < end-off {
		end = off + uint32(n)
	}
	return slab[off:end:end]
}

// SlotsAt decodes the object at obj through slab, the FrameSlab of the
// frame holding it, and returns a view of its reference slots (element i
// is slot i, at obj+HeaderBytes+i*WordBytes) and its size in bytes. This
// is the step of a scan that walks a frame through its slab. Objects that
// are walked never leave their frame; one that does is corrupt.
func (s *Space) SlotsAt(slab []uint32, obj Addr) (slots []uint32, size int) {
	off := s.wordOff(obj)
	t, length := s.decode(slab, off)
	if t == nil {
		s.badHeader(slab[off], obj)
	}
	first := off + headerWords
	end := first + uint32(t.NumRefs(length))
	if end > uint32(len(slab)) {
		s.overrun(obj)
	}
	return slab[first:end:end], t.Size(length)
}

// overrun panics for an object whose words, by its header, run past the
// end of its frame.
func (s *Space) overrun(obj Addr) {
	panic(fmt.Sprintf("heap: object at %v overruns its frame", obj))
}

// RefSlots is SlotsAt for an object met outside a frame walk: one
// resolve, one header decode.
func (s *Space) RefSlots(obj Addr) (slots []uint32, size int) {
	slab, _ := s.slabAt(obj, false)
	return s.SlotsAt(slab, obj)
}

// RefSlot validates reference slot i of the object at obj as GetRef and
// SetRef do and returns the slot's address together with its word, so a
// barriered store resolves the object once.
//
// Like dataWord and Format it is one call from the collector's or the
// mutator's method down: the translation, the header decode and the word
// offset inline, every fault is raised out of line, and only a
// frame-spanning large object — the one shape with words past the end of
// the slab its header resolves to — translates a second address.
func (s *Space) RefSlot(obj Addr, i int) (Addr, *uint32) {
	slab := s.lookup(obj)
	if slab == nil {
		s.fault(obj, false)
	}
	off := s.wordOff(obj)
	t, length := s.decode(slab, off)
	if t == nil {
		s.badHeader(slab[off], obj)
	}
	if n := t.NumRefs(length); i < 0 || i >= n {
		badRefSlot(i, n, obj, t)
	}
	slotAddr := s.RefSlotAddr(obj, i)
	if w := off + headerWords + uint32(i); w < uint32(len(slab)) {
		return slotAddr, &slab[w]
	}
	return slotAddr, s.Slot(slotAddr)
}

// badRefSlot panics for a reference slot index out of range.
//
//go:noinline
func badRefSlot(i, n int, obj Addr, t *TypeDesc) {
	panic(fmt.Sprintf("heap: ref slot %d out of range [0,%d) at %v (%s)",
		i, n, obj, t.Name))
}

// ResolveFrom resolves the from-space object at a once. If it has already
// been forwarded, fwd is its forwarding address; otherwise fwd is Nil and
// obj is a view of the whole object — header first, its length the
// object's size in words — for CopyForward to move. It faults as
// Forwarded, Forwarding and SizeOf do. Objects that are forwarded never
// leave their frame; one that does is corrupt.
func (s *Space) ResolveFrom(a Addr) (obj []uint32, fwd Addr) {
	slab := s.lookup(a)
	if slab == nil {
		s.fault(a, false)
	}
	off := s.wordOff(a)
	if slab[off]&fwdFlag != 0 {
		return nil, Addr(slab[off+1])
	}
	t, length := s.decode(slab, off)
	if t == nil {
		s.badHeader(slab[off], a)
	}
	end := off + uint32(t.Size(length))>>WordShift
	if end > uint32(len(slab)) {
		s.overrun(a)
	}
	return slab[off:end:end], Nil
}

// CopyForward copies the object at from — obj, as ResolveFrom resolved
// it — to dst (already reserved, zeroed memory within one frame) and
// installs the forwarding pointer: CopyBytes then SetForwarding, from one
// resolve of the destination and none of the source.
func (s *Space) CopyForward(obj []uint32, from, dst Addr) {
	if obj[0]&fwdFlag != 0 {
		panic(fmt.Sprintf("heap: double forwarding at %v", from))
	}
	to := s.lookup(dst)
	if to == nil {
		s.fault(dst, true)
	}
	off := s.wordOff(dst)
	if off+uint32(len(obj)) > uint32(len(to)) {
		s.overrun(dst)
	}
	copy(to[off:], obj)
	obj[0] |= fwdFlag
	obj[1] = uint32(dst)
}
