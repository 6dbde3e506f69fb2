package heap

import "testing"

// The word-access and copy primitives are the floor under every
// collector operation; these guards pin them at zero heap allocations so
// the slab-backed fast paths cannot silently regress.

func TestWordAccessZeroAlloc(t *testing.T) {
	s := NewSpace(1<<14, NewRegistry())
	a := s.FrameBase(s.MapFrame())
	if n := testing.AllocsPerRun(100, func() {
		s.SetWord(a, 42)
		if s.Word(a) != 42 {
			t.Fatal("corrupt")
		}
	}); n != 0 {
		t.Errorf("Word/SetWord allocate %v times per op, want 0", n)
	}
}

func TestCopyObjectZeroAlloc(t *testing.T) {
	r := NewRegistry()
	node := r.DefineScalar("n", 4, 9)
	s := NewSpace(1<<14, r)
	base := s.FrameBase(s.MapFrame())
	s.Format(base, node, 0, 1)
	dst := base + 1024
	if n := testing.AllocsPerRun(100, func() {
		s.CopyObject(base, dst)
	}); n != 0 {
		t.Errorf("CopyObject allocates %v times per op, want 0", n)
	}
}

func TestRecycledFrameMapZeroAlloc(t *testing.T) {
	s := NewSpace(1<<14, NewRegistry())
	s.UnmapFrame(s.MapFrame()) // prime the slab pool
	if n := testing.AllocsPerRun(100, func() {
		s.UnmapFrame(s.MapFrame())
	}); n != 0 {
		t.Errorf("recycled MapFrame/UnmapFrame allocates %v times per op, want 0", n)
	}
}

// The slab-resident primitives hand out views, not copies: a traced
// object (resolve, decode, copy, forward, slot walk) and a barriered
// store must stay off the Go allocator.
func TestSlabPrimitivesZeroAlloc(t *testing.T) {
	r := NewRegistry()
	node := r.DefineScalar("n", 4, 9)
	s := NewSpace(1<<14, r)
	f := s.MapFrame()
	base := s.FrameBase(f)
	s.Format(base, node, 0, 1)
	dst := base + 1024
	var sum uint32
	if n := testing.AllocsPerRun(100, func() {
		slab := s.FrameSlab(f)
		slots, _ := s.SlotsAt(slab, base)
		for i, w := range slots {
			sum += w
			slots[i] = uint32(base)
		}
		slots, _ = s.RefSlots(base)
		sum += uint32(len(slots)) + uint32(len(s.SlotRun(base+HeaderBytes, 4)))
		_, w := s.RefSlot(base, 2)
		*w = *s.Slot(base + HeaderBytes)
		s.SetData(base, 3, s.GetData(base, 2)+1)
		obj, fwd := s.ResolveFrom(base)
		if fwd != Nil {
			t.Fatal("forwarded")
		}
		s.CopyForward(obj, base, dst)
		if _, fwd := s.ResolveFrom(base); fwd != dst {
			t.Fatal("not forwarded")
		}
		obj[0] &^= fwdFlag // un-forward for the next run
		obj[1] = 0
	}); n != 0 {
		t.Errorf("slab primitives allocate %v times per object, want 0", n)
	}
	_ = sum
}
