package heap

import (
	"testing"
	"testing/quick"
)

func testSpace(t *testing.T) *Space {
	t.Helper()
	return NewSpace(4096, NewRegistry())
}

func TestNewSpaceRejectsBadFrameSizes(t *testing.T) {
	for _, bad := range []int{0, -1, 100, 255, 3000, 4097} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewSpace(%d) did not panic", bad)
				}
			}()
			NewSpace(bad, NewRegistry())
		}()
	}
}

func TestFrameArithmetic(t *testing.T) {
	s := testSpace(t)
	f := s.MapFrame()
	if f == NoFrame {
		t.Fatal("first mapped frame is frame 0 (reserved)")
	}
	base := s.FrameBase(f)
	if s.FrameOf(base) != f {
		t.Errorf("FrameOf(FrameBase(%d)) = %d", f, s.FrameOf(base))
	}
	if s.FrameOf(s.FrameLimit(f)-4) != f {
		t.Error("last word of frame maps to wrong frame")
	}
	if s.FrameOf(s.FrameLimit(f)) == f {
		t.Error("frame limit should be in the next frame")
	}
	if got := s.FrameLimit(f) - base; int(got) != s.FrameBytes() {
		t.Errorf("frame spans %d bytes, want %d", got, s.FrameBytes())
	}
}

func TestMapUnmapRecyclesFIFO(t *testing.T) {
	s := testSpace(t)
	a := s.MapFrame()
	b := s.MapFrame()
	if a == b {
		t.Fatal("distinct MapFrame calls returned the same frame")
	}
	s.UnmapFrame(a)
	s.UnmapFrame(b)
	if s.MappedFrames() != 0 {
		t.Fatalf("MappedFrames = %d after unmapping all", s.MappedFrames())
	}
	if got := s.MapFrame(); got != a {
		t.Errorf("recycle order: got frame %d, want %d (FIFO)", got, a)
	}
	if got := s.MapFrame(); got != b {
		t.Errorf("recycle order: got frame %d, want %d (FIFO)", got, b)
	}
}

func TestUnmappedAccessFaults(t *testing.T) {
	s := testSpace(t)
	f := s.MapFrame()
	a := s.FrameBase(f)
	s.SetWord(a, 42)
	s.UnmapFrame(f)
	defer func() {
		if recover() == nil {
			t.Error("read of unmapped frame did not fault")
		}
	}()
	s.Word(a)
}

func TestRemappedFrameIsZeroed(t *testing.T) {
	s := testSpace(t)
	f := s.MapFrame()
	a := s.FrameBase(f)
	s.SetWord(a, 0xdeadbeef)
	s.UnmapFrame(f)
	f2 := s.MapFrame()
	if f2 != f {
		t.Fatalf("expected frame %d recycled, got %d", f, f2)
	}
	if got := s.Word(a); got != 0 {
		t.Errorf("recycled frame not zeroed: word = %#x", got)
	}
}

func TestMisalignedAccessFaults(t *testing.T) {
	s := testSpace(t)
	f := s.MapFrame()
	a := s.FrameBase(f) + 2
	defer func() {
		if recover() == nil {
			t.Error("misaligned access did not fault")
		}
	}()
	s.Word(a)
}

func TestWordRoundTrip(t *testing.T) {
	s := testSpace(t)
	f := s.MapFrame()
	base := s.FrameBase(f)
	check := func(off Addr, v uint32) bool {
		a := base + (off%1024)*4
		s.SetWord(a, v)
		return s.Word(a) == v
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}

func TestRegistryDefineAndLookup(t *testing.T) {
	r := NewRegistry()
	node := r.DefineScalar("node", 2, 1)
	arr := r.DefineRefArray("arr")
	buf := r.DefineWordArray("buf")
	if node.ID == 0 || arr.ID == 0 || buf.ID == 0 {
		t.Error("type id 0 must be reserved")
	}
	if r.Get(node.ID) != node || r.Lookup("arr") != arr {
		t.Error("registry lookup mismatch")
	}
	if r.Len() != 3 {
		t.Errorf("Len = %d, want 3", r.Len())
	}
	func() {
		defer func() { recover() }()
		r.DefineScalar("node", 1, 1)
		t.Error("duplicate Define did not panic")
	}()
}

func TestTypeSizes(t *testing.T) {
	r := NewRegistry()
	node := r.DefineScalar("node", 2, 3)
	arr := r.DefineRefArray("arr")
	buf := r.DefineWordArray("buf")
	if got := node.Size(0); got != (3+2+3)*4 {
		t.Errorf("scalar size = %d", got)
	}
	if got := arr.Size(10); got != (3+10)*4 {
		t.Errorf("refarray size = %d", got)
	}
	if got := buf.Size(0); got != 3*4 {
		t.Errorf("empty wordarray size = %d", got)
	}
	if node.NumRefs(0) != 2 || arr.NumRefs(7) != 7 || buf.NumRefs(9) != 0 {
		t.Error("NumRefs mismatch")
	}
}

func TestObjectFormatAndAccessors(t *testing.T) {
	r := NewRegistry()
	node := r.DefineScalar("node", 2, 2)
	s := NewSpace(4096, r)
	f := s.MapFrame()
	a := s.FrameBase(f)
	s.Format(a, node, 0, 77)

	if s.TypeOf(a) != node {
		t.Error("TypeOf mismatch")
	}
	if s.Serial(a) != 77 {
		t.Errorf("Serial = %d", s.Serial(a))
	}
	if s.SizeOf(a) != node.Size(0) {
		t.Errorf("SizeOf = %d", s.SizeOf(a))
	}
	if s.NumRefs(a) != 2 || s.DataWords(a) != 2 {
		t.Error("slot counts wrong")
	}
	b := a + Addr(node.Size(0))
	s.Format(b, node, 0, 78)
	s.SetRef(a, 0, b)
	s.SetRef(a, 1, Nil)
	s.SetData(a, 0, 123)
	s.SetData(a, 1, 456)
	if s.GetRef(a, 0) != b || s.GetRef(a, 1) != Nil {
		t.Error("ref slots wrong")
	}
	if s.GetData(a, 0) != 123 || s.GetData(a, 1) != 456 {
		t.Error("data words wrong")
	}
	// Ref slot addresses must land inside the object, after the header.
	if s.RefSlotAddr(a, 0) != a+HeaderBytes {
		t.Error("first ref slot not immediately after header")
	}
}

func TestRefArrayObject(t *testing.T) {
	r := NewRegistry()
	arr := r.DefineRefArray("arr")
	s := NewSpace(4096, r)
	f := s.MapFrame()
	a := s.FrameBase(f)
	s.Format(a, arr, 5, 1)
	if s.Length(a) != 5 || s.NumRefs(a) != 5 || s.DataWords(a) != 0 {
		t.Error("array layout wrong")
	}
	for i := 0; i < 5; i++ {
		s.SetRef(a, i, a) // self references
	}
	for i := 0; i < 5; i++ {
		if s.GetRef(a, i) != a {
			t.Errorf("slot %d corrupted", i)
		}
	}
}

func TestSlotBoundsChecked(t *testing.T) {
	r := NewRegistry()
	node := r.DefineScalar("node", 1, 1)
	s := NewSpace(4096, r)
	a := s.FrameBase(s.MapFrame())
	s.Format(a, node, 0, 1)
	for _, f := range []func(){
		func() { s.GetRef(a, 1) },
		func() { s.GetRef(a, -1) },
		func() { s.SetRef(a, 1, Nil) },
		func() { s.GetData(a, 1) },
		func() { s.SetData(a, -1, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("out-of-range slot access did not panic")
				}
			}()
			f()
		}()
	}
}

func TestForwardingProtocol(t *testing.T) {
	r := NewRegistry()
	node := r.DefineScalar("node", 1, 1)
	s := NewSpace(4096, r)
	a := s.FrameBase(s.MapFrame())
	s.Format(a, node, 0, 9)
	s.SetData(a, 0, 0xabcd)
	dst := a + 64
	if n := s.CopyObject(a, dst); n != node.Size(0) {
		t.Errorf("CopyObject returned %d", n)
	}
	s.SetForwarding(a, dst)
	if !s.Forwarded(a) {
		t.Error("Forwarded false after SetForwarding")
	}
	if s.Forwarding(a) != dst {
		t.Error("forwarding address wrong")
	}
	if s.Forwarded(dst) {
		t.Error("copy must not be forwarded")
	}
	if s.Serial(dst) != 9 || s.GetData(dst, 0) != 0xabcd {
		t.Error("copy corrupted")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("double forwarding did not panic")
			}
		}()
		s.SetForwarding(a, dst)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("TypeOf on forwarded object did not panic")
			}
		}()
		s.TypeOf(a)
	}()
}

func TestWalkObjects(t *testing.T) {
	r := NewRegistry()
	node := r.DefineScalar("node", 0, 1)
	arr := r.DefineWordArray("buf")
	s := NewSpace(4096, r)
	base := s.FrameBase(s.MapFrame())
	a := base
	var want []Addr
	for i := 0; i < 5; i++ {
		var sz int
		if i%2 == 0 {
			s.Format(a, node, 0, uint32(i+1))
			sz = node.Size(0)
		} else {
			s.Format(a, arr, i*3, uint32(i+1))
			sz = arr.Size(i * 3)
		}
		want = append(want, a)
		a += Addr(sz)
	}
	var got []Addr
	s.WalkObjects(base, a, func(obj Addr) bool {
		got = append(got, obj)
		return true
	})
	if len(got) != len(want) {
		t.Fatalf("walked %d objects, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("object %d at %v, want %v", i, got[i], want[i])
		}
	}
	// Early stop.
	n := 0
	s.WalkObjects(base, a, func(Addr) bool { n++; return n < 2 })
	if n != 2 {
		t.Errorf("early stop visited %d", n)
	}
}

func TestObjectPropertyRoundTrip(t *testing.T) {
	// Property: for random layouts, formatting then reading back
	// preserves type, length, serial and all slot contents.
	r := NewRegistry()
	types := []*TypeDesc{
		r.DefineScalar("s0", 0, 0),
		r.DefineScalar("s1", 3, 2),
		r.DefineRefArray("ra"),
		r.DefineWordArray("wa"),
	}
	s := NewSpace(1<<16, r)
	base := s.FrameBase(s.MapFrame())

	prop := func(ti uint8, length uint8, serial uint32, v uint32) bool {
		t0 := types[int(ti)%len(types)]
		n := 0
		if t0.Kind != Scalar {
			n = int(length % 100)
		}
		s2 := serial | 1 // nonzero
		s.Format(base, t0, n, s2)
		if s.TypeOf(base) != t0 || s.Length(base) != n || s.Serial(base) != s2 {
			return false
		}
		for i := 0; i < s.DataWords(base); i++ {
			s.SetData(base, i, v+uint32(i))
		}
		for i := 0; i < s.DataWords(base); i++ {
			if s.GetData(base, i) != v+uint32(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestAddressReuseChurn is a property test over random map/unmap
// sequences: mapped count stays consistent, reads of any mapped frame
// work, and unmapped access always faults.
func TestAddressReuseChurn(t *testing.T) {
	prop := func(ops []uint8) bool {
		s := NewSpace(1024, NewRegistry())
		var live []Frame
		for _, op := range ops {
			if op < 140 {
				live = append(live, s.MapFrame())
			} else if len(live) > 0 {
				i := int(op) % len(live)
				s.UnmapFrame(live[i])
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
			}
		}
		for _, f := range live {
			s.SetWord(s.FrameBase(f), 1) // must not fault
		}
		return s.MappedFrames() == len(live)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
