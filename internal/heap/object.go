package heap

import "fmt"

// Object layout, in words:
//
//	W0: header — bits 0..23 type id, bit 31 forwarded flag
//	W1: array length in elements (0 for scalars); when the forwarded flag
//	    is set, W1 instead holds the forwarding address
//	W2: serial — a unique allocation number used by the validation oracle
//	    and for deterministic debugging
//	W3..: reference slots, then data words (per the type descriptor)
//
// The forwarding encoding clobbers W1 exactly the way real copying
// collectors clobber from-space objects: once an object is forwarded its
// old body is unreadable, and only the (flag, forwarding address) pair
// survives.
const (
	headerWords = 3
	// HeaderBytes is the per-object header overhead.
	HeaderBytes = headerWords * WordBytes

	typeMask  = 0x00ffffff
	fwdFlag   = 0x80000000
	hdrLenOff = 1 * WordBytes
	hdrSerOff = 2 * WordBytes
)

// Format writes a fresh object header at addr. The body (slots and data)
// is expected to be zero, which bump allocation into freshly mapped
// frames guarantees.
func (s *Space) Format(addr Addr, t *TypeDesc, length int, serial uint32) {
	if t.Kind == Scalar && length != 0 || length < 0 {
		badLength(t, length)
	}
	slab := s.lookup(addr)
	if slab == nil {
		s.fault(addr, true)
	}
	off := s.wordOff(addr)
	slab[off] = uint32(t.ID)
	slab[off+1] = uint32(length)
	slab[off+2] = serial
}

// badLength panics for a length no object of type t can be formatted
// with.
//
//go:noinline
func badLength(t *TypeDesc, length int) {
	if t.Kind == Scalar && length != 0 {
		panic(fmt.Sprintf("heap: scalar %s formatted with length %d", t.Name, length))
	}
	panic("heap: negative array length")
}

// Header decodes the object header at addr in one pass: its type
// descriptor and array length — one slab resolve and one registry lookup
// per object, instead of one of each per SizeOf/NumRefs/Length call.
func (s *Space) Header(addr Addr) (*TypeDesc, int) {
	slab, off := s.slabAt(addr, false)
	t, length := s.decode(slab, off)
	if t == nil {
		s.badHeader(slab[off], addr)
	}
	return t, length
}

// decode reads the header at word off of slab, returning a nil type when
// the word names none — the caller raises badHeader. A well-formed header
// word is a type id and nothing else, so one range check admits it; like
// lookup, decode is small enough to inline into the primitives that run
// once per object traced.
func (s *Space) decode(slab []uint32, off uint32) (*TypeDesc, int) {
	if h, types := slab[off], s.Types.types; h < uint32(len(types)) {
		return types[h], int(slab[off+1]) // types[0] is nil: id 0 is reserved
	}
	return nil, 0
}

// badHeader panics for a header word that names no type: a forwarded
// header, or a corrupt one.
func (s *Space) badHeader(h uint32, addr Addr) {
	if h&fwdFlag != 0 {
		panic(fmt.Sprintf("heap: TypeOf on forwarded object at %v", addr))
	}
	s.Types.Get(TypeID(h & typeMask)) // panics: invalid type id
	panic(fmt.Sprintf("heap: malformed header %#x at %v", h, addr))
}

// TypeOf returns the type descriptor of the object at addr.
func (s *Space) TypeOf(addr Addr) *TypeDesc {
	t, _ := s.Header(addr)
	return t
}

// Length returns the array length of the object at addr (0 for scalars).
func (s *Space) Length(addr Addr) int { return int(s.Word(addr + hdrLenOff)) }

// Serial returns the allocation serial of the object at addr.
func (s *Space) Serial(addr Addr) uint32 { return s.Word(addr + hdrSerOff) }

// SizeOf returns the total size in bytes of the object at addr.
func (s *Space) SizeOf(addr Addr) int {
	t, length := s.Header(addr)
	return t.Size(length)
}

// NumRefs returns the number of reference slots of the object at addr.
func (s *Space) NumRefs(addr Addr) int {
	t, length := s.Header(addr)
	return t.NumRefs(length)
}

// RefSlotAddr returns the address of reference slot i of the object at
// addr. Remembered sets store these slot addresses.
func (s *Space) RefSlotAddr(addr Addr, i int) Addr {
	return addr + Addr((headerWords+i)*WordBytes)
}

// GetRef reads reference slot i of the object at addr.
func (s *Space) GetRef(addr Addr, i int) Addr {
	_, p := s.RefSlot(addr, i)
	return Addr(*p)
}

// SetRef writes reference slot i of the object at addr. This is the raw
// store; write barriers live above this package.
func (s *Space) SetRef(addr Addr, i int, v Addr) {
	_, p := s.RefSlot(addr, i)
	*p = uint32(v)
}

// dataWord validates data word i of the object at addr and returns it,
// from one resolve of the object.
func (s *Space) dataWord(addr Addr, i int) *uint32 {
	slab := s.lookup(addr)
	if slab == nil {
		s.fault(addr, false)
	}
	off := s.wordOff(addr)
	t, length := s.decode(slab, off)
	if t == nil {
		s.badHeader(slab[off], addr)
	}
	base, n := t.dataLayout(length)
	if i < 0 || i >= n {
		badDataWord(i, n, addr, t)
	}
	if w := off + uint32(base+i); w < uint32(len(slab)) {
		return &slab[w]
	}
	return s.Slot(addr + Addr((base+i)*WordBytes)) // past the first frame of a span
}

// badDataWord panics for a data word index out of range, or for any
// data access on a reference array, which has no data words.
//
//go:noinline
func badDataWord(i, n int, addr Addr, t *TypeDesc) {
	if t.Kind == RefArray {
		panic(fmt.Sprintf("heap: data access on %s (%s)", t.Name, t.Kind))
	}
	panic(fmt.Sprintf("heap: data word %d out of range [0,%d) at %v (%s)", i, n, addr, t.Name))
}

// GetData reads data word i of the object at addr.
func (s *Space) GetData(addr Addr, i int) uint32 { return *s.dataWord(addr, i) }

// SetData writes data word i of the object at addr.
func (s *Space) SetData(addr Addr, i int, v uint32) { *s.dataWord(addr, i) = v }

// DataWords returns the number of data words of the object at addr.
func (s *Space) DataWords(addr Addr) int {
	t, length := s.Header(addr)
	_, n := t.dataLayout(length)
	return n
}

// Forwarded reports whether the object at addr has been forwarded.
func (s *Space) Forwarded(addr Addr) bool { return s.Word(addr)&fwdFlag != 0 }

// Forwarding returns the forwarding address of a forwarded object.
func (s *Space) Forwarding(addr Addr) Addr {
	if !s.Forwarded(addr) {
		panic(fmt.Sprintf("heap: Forwarding on unforwarded object at %v", addr))
	}
	return Addr(s.Word(addr + hdrLenOff))
}

// SetForwarding marks the object at addr forwarded to dst, clobbering W1.
func (s *Space) SetForwarding(addr, dst Addr) {
	if s.Forwarded(addr) {
		panic(fmt.Sprintf("heap: double forwarding at %v", addr))
	}
	slab, off := s.slabAt(addr, true)
	slab[off] |= fwdFlag
	slab[off+1] = uint32(dst)
}

// CopyObject copies the object at src to dst (already reserved, zeroed
// memory) and returns its size in bytes. The source header must not yet
// be forwarded; the caller installs the forwarding pointer afterwards.
func (s *Space) CopyObject(src, dst Addr) int {
	size := s.SizeOf(src)
	s.CopyBytes(src, dst, size)
	return size
}

// CopyBytes copies size bytes (a word multiple) from src to dst. When
// both ranges lie within one frame — always true for ordinary objects,
// which never span frames — it is a single copy() over the word slabs.
func (s *Space) CopyBytes(src, dst Addr, size int) {
	nw := uint32(size) >> WordShift
	ss, so := s.slabAt(src, false)
	ds, do := s.slabAt(dst, true)
	if so+nw <= uint32(len(ss)) && do+nw <= uint32(len(ds)) {
		copy(ds[do:do+nw], ss[so:so+nw])
		return
	}
	// Frame-spanning range (large objects): fall back to word stores.
	for off := Addr(0); off < Addr(size); off += WordBytes {
		s.SetWord(dst+off, s.Word(src+off))
	}
}

// WalkObjects calls fn for each object formatted consecutively in
// [start, limit). It is the Cheney scan-pointer walk: fn receives the
// object address and must not move it. Walking stops early if fn returns
// false.
func (s *Space) WalkObjects(start, limit Addr, fn func(obj Addr) bool) {
	for a := start; a < limit; {
		t, length := s.Header(a)
		if !fn(a) {
			return
		}
		a += Addr(t.Size(length))
	}
}
