package heap

import (
	"fmt"
	"strings"
	"testing"
)

// panicOf runs fn and returns what it panicked with, rendered as text
// ("" when it returned normally).
func panicOf(fn func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	fn()
	return ""
}

// slabFixture is a space with one formatted three-slot object at obj, a
// free destination in the same frame, an object already forwarded, a
// two-slot reference array, a two-word data array, and an address in a
// frame that was never mapped.
type slabFixture struct {
	s                                   *Space
	f                                   Frame
	node, refArr                        *TypeDesc
	obj, dst, fwd, arr, words, unmapped Addr
}

func newSlabFixture() slabFixture {
	r := NewRegistry()
	node := r.DefineScalar("node", 3, 1)
	refArr := r.DefineRefArray("arr")
	s := NewSpace(4096, r)
	f := s.MapFrame()
	base := s.FrameBase(f)
	x := slabFixture{s: s, f: f, node: node, refArr: refArr, obj: base, fwd: base + 64,
		arr: base + 128, words: base + 192, dst: base + 1024, unmapped: s.FrameLimit(f) + 4096}
	s.Format(x.obj, node, 0, 1)
	s.Format(x.fwd, node, 0, 2)
	s.SetForwarding(x.fwd, base+2048)
	s.Format(x.arr, refArr, 2, 3)
	s.Format(x.words, r.DefineWordArray("words"), 2, 4)
	return x
}

// Each slab-resident primitive must fault with the panic the
// word-at-a-time path raises for the same bad access: the old call
// sequence and the new primitive run against identical fixtures and
// their panic messages are compared.
//
// RefSlot, dataWord (GetData, SetData) and Format are what the mutator's
// operations come down to, flattened to one call each with every fault
// raised out of line. For them there is no older path left to compare
// with — the word-at-a-time accessors go through them — so the second
// table gives the message itself, and the accesses either side of each
// refused one, which must not panic: a row fails if the text moved, and
// if the condition did.
func TestSlabPrimitivesFaultLikeWordPath(t *testing.T) {
	type access func(x slabFixture)
	cases := []struct {
		name     string
		old, new access
	}{
		{"unmapped/Slot",
			func(x slabFixture) { x.s.Word(x.unmapped) },
			func(x slabFixture) { x.s.Slot(x.unmapped) }},
		{"unmapped/SlotRun",
			func(x slabFixture) { x.s.Word(x.unmapped) },
			func(x slabFixture) { x.s.SlotRun(x.unmapped, 2) }},
		{"unmapped/FrameSlab",
			func(x slabFixture) { x.s.Word(x.s.FrameBase(x.s.FrameOf(x.unmapped))) },
			func(x slabFixture) { x.s.FrameSlab(x.s.FrameOf(x.unmapped)) }},
		{"unmapped/RefSlots",
			func(x slabFixture) { x.s.Header(x.unmapped) },
			func(x slabFixture) { x.s.RefSlots(x.unmapped) }},
		{"unmapped/RefSlot",
			func(x slabFixture) { x.s.Header(x.unmapped) },
			func(x slabFixture) { x.s.RefSlot(x.unmapped, 0) }},
		{"unmapped/ResolveFrom",
			func(x slabFixture) { x.s.Forwarded(x.unmapped) },
			func(x slabFixture) { x.s.ResolveFrom(x.unmapped) }},
		{"unmapped/CopyForward",
			func(x slabFixture) {
				x.s.CopyBytes(x.obj, x.unmapped, x.s.SizeOf(x.obj))
			},
			func(x slabFixture) {
				obj, _ := x.s.ResolveFrom(x.obj)
				x.s.CopyForward(obj, x.obj, x.unmapped)
			}},
		{"misaligned/Slot",
			func(x slabFixture) { x.s.Word(x.obj + 2) },
			func(x slabFixture) { x.s.Slot(x.obj + 2) }},
		{"misaligned/SlotRun",
			func(x slabFixture) { x.s.Word(x.obj + 1) },
			func(x slabFixture) { x.s.SlotRun(x.obj+1, 1) }},
		{"misaligned/RefSlots",
			func(x slabFixture) { x.s.Header(x.obj + 3) },
			func(x slabFixture) { x.s.RefSlots(x.obj + 3) }},
		{"misaligned/RefSlot",
			func(x slabFixture) { x.s.Header(x.obj + 2) },
			func(x slabFixture) { x.s.RefSlot(x.obj+2, 0) }},
		{"misaligned/ResolveFrom",
			func(x slabFixture) { x.s.Forwarded(x.obj + 2) },
			func(x slabFixture) { x.s.ResolveFrom(x.obj + 2) }},
		{"misaligned/CopyForward",
			func(x slabFixture) {
				x.s.CopyBytes(x.obj, x.dst+2, x.s.SizeOf(x.obj))
			},
			func(x slabFixture) {
				obj, _ := x.s.ResolveFrom(x.obj)
				x.s.CopyForward(obj, x.obj, x.dst+2)
			}},
		{"forwarded/RefSlots",
			func(x slabFixture) { x.s.Header(x.fwd) },
			func(x slabFixture) { x.s.RefSlots(x.fwd) }},
		{"forwarded/SlotsAt",
			func(x slabFixture) { x.s.Header(x.fwd) },
			func(x slabFixture) { x.s.SlotsAt(x.s.FrameSlab(x.f), x.fwd) }},
		{"forwarded/RefSlot",
			func(x slabFixture) { x.s.Header(x.fwd) },
			func(x slabFixture) { x.s.RefSlot(x.fwd, 0) }},
		{"forwarded/GetData",
			func(x slabFixture) { x.s.Header(x.fwd) },
			func(x slabFixture) { x.s.GetData(x.fwd, 0) }},
		{"double-forwarding/CopyForward",
			func(x slabFixture) {
				x.s.SetForwarding(x.obj, x.dst)
				x.s.SetForwarding(x.obj, x.dst)
			},
			func(x slabFixture) {
				obj, _ := x.s.ResolveFrom(x.obj)
				x.s.CopyForward(obj, x.obj, x.dst)
				x.s.CopyForward(obj, x.obj, x.dst)
			}},
		{"slot-range/RefSlot",
			func(x slabFixture) { x.s.GetRef(x.obj, 3) },
			func(x slabFixture) { x.s.RefSlot(x.obj, 3) }},
		{"bad-type/RefSlots",
			func(x slabFixture) { x.s.SetWord(x.obj, 77); x.s.Header(x.obj) },
			func(x slabFixture) { x.s.SetWord(x.obj, 77); x.s.RefSlots(x.obj) }},
		{"bad-type/ResolveFrom",
			func(x slabFixture) { x.s.SetWord(x.obj, 0); x.s.SizeOf(x.obj) },
			func(x slabFixture) { x.s.SetWord(x.obj, 0); x.s.ResolveFrom(x.obj) }},
		{"released/Slot",
			func(x slabFixture) { x.s.Release(); x.s.Word(x.obj) },
			func(x slabFixture) { x.s.Release(); x.s.Slot(x.obj) }},
		{"released/FrameSlab",
			func(x slabFixture) { x.s.Release(); x.s.Word(x.s.FrameBase(x.f)) },
			func(x slabFixture) { x.s.Release(); x.s.FrameSlab(x.f) }},
		{"released/SlotRun",
			func(x slabFixture) { x.s.Release(); x.s.Word(x.obj + HeaderBytes) },
			func(x slabFixture) { x.s.Release(); x.s.SlotRun(x.obj+HeaderBytes, 3) }},
		{"released/RefSlots",
			func(x slabFixture) { x.s.Release(); x.s.Header(x.obj) },
			func(x slabFixture) { x.s.Release(); x.s.RefSlots(x.obj) }},
		{"released/RefSlot",
			func(x slabFixture) { x.s.Release(); x.s.Header(x.obj) },
			func(x slabFixture) { x.s.Release(); x.s.RefSlot(x.obj, 0) }},
		{"released/ResolveFrom",
			func(x slabFixture) { x.s.Release(); x.s.Forwarded(x.obj) },
			func(x slabFixture) { x.s.Release(); x.s.ResolveFrom(x.obj) }},
		{"released/CopyForward",
			func(x slabFixture) { x.s.Release(); x.s.SetWord(x.dst, 0) },
			func(x slabFixture) {
				// The source view predates the release (which it must
				// never be held across); the destination is what faults.
				obj, _ := x.s.ResolveFrom(x.obj)
				x.s.Release()
				x.s.CopyForward(obj, x.obj, x.dst)
			}},
	}
	for _, tc := range cases {
		want := panicOf(func() { tc.old(newSlabFixture()) })
		got := panicOf(func() { tc.new(newSlabFixture()) })
		if want == "" {
			t.Errorf("%s: the word-at-a-time path did not panic; bad fixture", tc.name)
		}
		if got != want {
			t.Errorf("%s: panics %q, the word-at-a-time path %q", tc.name, got, want)
		}
	}

	exact := []struct {
		name   string
		access access
		want   string // "" for an access that must not panic
	}{
		{"slot-range/RefSlot/-1", func(x slabFixture) { x.s.RefSlot(x.obj, -1) },
			"heap: ref slot -1 out of range [0,3) at 0x00001000 (node)"},
		{"slot-range/RefSlot/first", func(x slabFixture) { x.s.RefSlot(x.obj, 0) }, ""},
		{"slot-range/RefSlot/last", func(x slabFixture) { x.s.RefSlot(x.obj, 2) }, ""},
		{"slot-range/RefSlot/end", func(x slabFixture) { x.s.RefSlot(x.obj, 3) },
			"heap: ref slot 3 out of range [0,3) at 0x00001000 (node)"},
		{"slot-range/RefSlot/array-last", func(x slabFixture) { x.s.SetRef(x.arr, 1, x.obj) }, ""},
		{"slot-range/RefSlot/array-end", func(x slabFixture) { x.s.GetRef(x.arr, 2) },
			"heap: ref slot 2 out of range [0,2) at 0x00001080 (arr)"},
		{"slot-range/RefSlot/no-slots", func(x slabFixture) { x.s.RefSlot(x.words, 0) },
			"heap: ref slot 0 out of range [0,0) at 0x000010c0 (words)"},
		{"data-range/GetData/-1", func(x slabFixture) { x.s.GetData(x.obj, -1) },
			"heap: data word -1 out of range [0,1) at 0x00001000 (node)"},
		{"data-range/GetData/only", func(x slabFixture) { x.s.GetData(x.obj, 0) }, ""},
		{"data-range/SetData/end", func(x slabFixture) { x.s.SetData(x.obj, 1, 9) },
			"heap: data word 1 out of range [0,1) at 0x00001000 (node)"},
		{"data-range/SetData/array-last", func(x slabFixture) { x.s.SetData(x.words, 1, 9) }, ""},
		{"data-range/GetData/array-end", func(x slabFixture) { x.s.GetData(x.words, 2) },
			"heap: data word 2 out of range [0,2) at 0x000010c0 (words)"},
		{"data-kind/GetData", func(x slabFixture) { x.s.GetData(x.arr, 0) },
			"heap: data access on arr (refarray)"},
		{"data-kind/SetData", func(x slabFixture) { x.s.SetData(x.arr, 5, 1) },
			"heap: data access on arr (refarray)"},
		{"forwarded/SetData", func(x slabFixture) { x.s.SetData(x.fwd, 0, 1) },
			"heap: TypeOf on forwarded object at 0x00001040"},
		{"bad-type/RefSlot", func(x slabFixture) { x.s.SetWord(x.obj, 77); x.s.RefSlot(x.obj, 0) },
			"heap: invalid type id 77"},
		{"bad-type/GetData", func(x slabFixture) { x.s.SetWord(x.obj, 0); x.s.GetData(x.obj, 0) },
			"heap: invalid type id 0"},
		{"bad-type/SetData", func(x slabFixture) { x.s.SetWord(x.obj, 0x01000001); x.s.SetData(x.obj, 0, 1) },
			"heap: malformed header 0x1000001 at 0x00001000"},
		{"unmapped/GetData", func(x slabFixture) { x.s.GetData(x.unmapped, 0) },
			"heap: fault at 0x00003000 (frame 3 unmapped)"},
		{"unmapped/SetData", func(x slabFixture) { x.s.SetData(x.unmapped, 0, 1) },
			"heap: fault at 0x00003000 (frame 3 unmapped)"},
		{"unmapped/Format", func(x slabFixture) { x.s.Format(x.unmapped, x.node, 0, 9) },
			"heap: fault at 0x00003000 (frame 3 unmapped)"},
		{"nil/RefSlot", func(x slabFixture) { x.s.RefSlot(Nil, 0) },
			"heap: fault at 0x00000000 (frame 0 unmapped)"},
		{"misaligned/GetData", func(x slabFixture) { x.s.GetData(x.obj+2, 0) },
			"heap: misaligned read at 0x00001002"},
		{"misaligned/SetData", func(x slabFixture) { x.s.SetData(x.obj+1, 0, 1) },
			"heap: misaligned read at 0x00001001"}, // the header read faults first
		{"misaligned/Format", func(x slabFixture) { x.s.Format(x.dst+2, x.node, 0, 9) },
			"heap: misaligned write at 0x00001402"},
		{"released/GetData", func(x slabFixture) { x.s.Release(); x.s.GetData(x.obj, 0) },
			"heap: fault at 0x00001000 (frame 1 unmapped)"},
		{"released/SetData", func(x slabFixture) { x.s.Release(); x.s.SetData(x.obj, 0, 1) },
			"heap: fault at 0x00001000 (frame 1 unmapped)"},
		{"released/Format", func(x slabFixture) { x.s.Release(); x.s.Format(x.dst, x.node, 0, 9) },
			"heap: fault at 0x00001400 (frame 1 unmapped)"},
		{"length/Format/scalar", func(x slabFixture) { x.s.Format(x.dst, x.node, 2, 9) },
			"heap: scalar node formatted with length 2"},
		{"length/Format/scalar-negative", func(x slabFixture) { x.s.Format(x.dst, x.node, -1, 9) },
			"heap: scalar node formatted with length -1"},
		{"length/Format/negative", func(x slabFixture) { x.s.Format(x.dst, x.refArr, -1, 9) },
			"heap: negative array length"},
		{"length/Format/before-fault", func(x slabFixture) { x.s.Format(x.unmapped, x.refArr, -1, 9) },
			"heap: negative array length"}, // the length is refused before the address is looked at
		{"length/Format/scalar-zero", func(x slabFixture) { x.s.Format(x.dst, x.node, 0, 9) }, ""},
		{"length/Format/array-zero", func(x slabFixture) { x.s.Format(x.dst, x.refArr, 0, 9) }, ""},
	}
	for _, tc := range exact {
		if got := panicOf(func() { tc.access(newSlabFixture()) }); got != tc.want {
			t.Errorf("%s: panics %q, want %q", tc.name, got, tc.want)
		}
	}
}

// The views agree with the word-at-a-time accessors on a healthy heap,
// word for word and store for store.
func TestSlabViewsAliasTheHeap(t *testing.T) {
	r := NewRegistry()
	node := r.DefineScalar("node", 2, 2)
	arr := r.DefineRefArray("arr")
	s := NewSpace(4096, r)
	f := s.MapFrame()
	base := s.FrameBase(f)
	a, b := base, base+Addr(node.Size(0))
	s.Format(a, node, 0, 1)
	s.Format(b, arr, 5, 2)
	s.SetRef(a, 1, b)
	s.SetRef(b, 4, a)

	slab := s.FrameSlab(f)
	if len(slab) != s.FrameBytes()/WordBytes {
		t.Fatalf("FrameSlab has %d words", len(slab))
	}
	slots, size := s.SlotsAt(slab, a)
	if len(slots) != 2 || size != node.Size(0) || Addr(slots[1]) != b {
		t.Errorf("SlotsAt(node) = %v, %d", slots, size)
	}
	slots, size = s.RefSlots(b)
	if len(slots) != 5 || size != arr.Size(5) || Addr(slots[4]) != a {
		t.Errorf("RefSlots(arr) = %v, %d", slots, size)
	}
	slots[0] = uint32(b) // a store through the view is a store to the heap
	if s.GetRef(b, 0) != b {
		t.Error("store through a RefSlots view not seen by GetRef")
	}
	if run := s.SlotRun(b+HeaderBytes, 5); len(run) != 5 || Addr(run[0]) != b {
		t.Errorf("SlotRun = %v", run)
	}
	slotAddr, w := s.RefSlot(a, 1)
	if slotAddr != s.RefSlotAddr(a, 1) || Addr(*w) != b {
		t.Errorf("RefSlot = %v, %v", slotAddr, *w)
	}
	*s.Slot(slotAddr) = uint32(a)
	if s.GetRef(a, 1) != a || *w != uint32(a) {
		t.Error("Slot and RefSlot do not alias the same slot")
	}

	obj, fwd := s.ResolveFrom(a)
	if fwd != Nil || len(obj)*WordBytes != node.Size(0) {
		t.Fatalf("ResolveFrom(unforwarded) = %d words, fwd %v", len(obj), fwd)
	}
	dst := base + 2048
	s.SetData(a, 1, 0xfeed)
	s.CopyForward(obj, a, dst)
	if !s.Forwarded(a) || s.Forwarding(a) != dst {
		t.Error("CopyForward did not install the forwarding pointer")
	}
	if s.Serial(dst) != 1 || s.GetRef(dst, 1) != a || s.GetData(dst, 1) != 0xfeed || s.Forwarded(dst) {
		t.Error("CopyForward corrupted the copy")
	}
	if obj, fwd := s.ResolveFrom(a); obj != nil || fwd != dst {
		t.Errorf("ResolveFrom(forwarded) = %v, %v", obj, fwd)
	}
}

// A frame-spanning large object is the one shape whose slots leave the
// slab its header resolved to: SlotRun yields one run per frame, and the
// single-slot accessors reach the later frames' words.
func TestSlabPrimitivesOnFrameSpanningObject(t *testing.T) {
	r := NewRegistry()
	arr := r.DefineRefArray("arr")
	words := r.DefineWordArray("words")
	s := NewSpace(256, r) // 64 words a frame
	const n = 150         // three frames
	obj := s.FrameBase(s.MapSpan(3))
	s.Format(obj, arr, n, 1)
	for i := 0; i < n; i++ {
		_, w := s.RefSlot(obj, i)
		*w = uint32(1000 + i)
	}
	var runs []int
	i := 0
	for a, left := obj+HeaderBytes, n; left > 0; {
		run := s.SlotRun(a, left)
		runs = append(runs, len(run))
		for _, w := range run {
			if w != uint32(1000+i) || Addr(w) != s.GetRef(obj, i) || s.Word(a) != w {
				t.Fatalf("slot %d: run holds %d", i, w)
			}
			a += WordBytes
			i++
		}
		left -= len(run)
	}
	if fmt.Sprint(runs) != "[61 64 25]" {
		t.Errorf("runs of %v slots, want [61 64 25]", runs)
	}
	if want := "overruns its frame"; !strings.Contains(panicOf(func() { s.RefSlots(obj) }), want) {
		t.Errorf("RefSlots on a frame-spanning object should panic with %q", want)
	}

	data := s.FrameBase(s.MapSpan(2))
	s.Format(data, words, 100, 2)
	s.SetData(data, 99, 7)
	if s.GetData(data, 99) != 7 || s.Word(data+HeaderBytes+99*WordBytes) != 7 {
		t.Error("data word in the second frame of a span not reached")
	}
}

// A view outlives any amount of mapping: MapFrame appends to the frame
// table (reallocating it many times over here) but never moves a slab.
// What a view must not outlive is UnmapFrame or Release, which hand its
// slab to somebody else.
func TestSlabViewSurvivesMapping(t *testing.T) {
	r := NewRegistry()
	node := r.DefineScalar("node", 2, 0)
	s := NewSpace(256, r)
	f := s.MapFrame()
	obj := s.FrameBase(f)
	s.Format(obj, node, 0, 1)
	slab := s.FrameSlab(f)
	slots, _ := s.RefSlots(obj)
	_, word := s.RefSlot(obj, 1)
	from, _ := s.ResolveFrom(obj)

	var mapped []Frame
	for i := 0; i < 5000; i++ {
		mapped = append(mapped, s.MapFrame())
	}
	s.MapSpan(64)
	for _, g := range mapped[:2500] { // unmapping OTHER frames is harmless too
		s.UnmapFrame(g)
	}

	slots[0] = 0x1234
	*word = 0x5678
	if s.GetRef(obj, 0) != 0x1234 || s.GetRef(obj, 1) != 0x5678 {
		t.Error("stores through views taken before the mapping were lost")
	}
	s.SetRef(obj, 0, 0x9abc)
	if slots[0] != 0x9abc || slab[s.wordOff(obj)+headerWords] != 0x9abc {
		t.Error("views taken before the mapping no longer alias the frame")
	}
	dst := s.FrameBase(mapped[4000])
	s.CopyForward(from, obj, dst)
	if s.Forwarding(obj) != dst || s.GetRef(dst, 1) != 0x5678 {
		t.Error("a from-space view taken before the mapping copied the wrong words")
	}
}
