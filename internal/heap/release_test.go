package heap

import (
	"math/rand"
	"runtime"
	"testing"
)

// TestRecycleQueueOrderMatchesSliceQueue scripts a long map/unmap
// sequence with bursts in both directions (a collection unmaps many
// frames, the mutator maps them back one by one) and requires every
// MapFrame to return the frame number a plain `q = q[1:]` queue would:
// frame numbers are addresses, so recycle order is simulated behaviour.
func TestRecycleQueueOrderMatchesSliceQueue(t *testing.T) {
	s := NewSpace(256, NewRegistry())
	rng := rand.New(rand.NewSource(7))
	var queue []Frame // the reference: strictly FIFO
	next := Frame(1)  // next never-used frame number
	var mapped []Frame
	mapOne := func(step int) {
		want := next
		if len(queue) > 0 {
			want, queue = queue[0], queue[1:]
		} else {
			next++
		}
		if got := s.MapFrame(); got != want {
			t.Fatalf("step %d: MapFrame = %d, reference queue says %d", step, got, want)
		}
		mapped = append(mapped, want)
	}
	unmapOne := func() {
		i := rng.Intn(len(mapped))
		f := mapped[i]
		mapped[i] = mapped[len(mapped)-1]
		mapped = mapped[:len(mapped)-1]
		s.UnmapFrame(f)
		queue = append(queue, f)
	}
	for step := 0; step < 20000; step++ {
		switch r := rng.Intn(100); {
		case r < 45:
			mapOne(step)
		case r < 88:
			if len(mapped) > 0 {
				unmapOne()
			}
		case r < 92: // a collection's worth of unmaps
			for n := rng.Intn(40); n > 0 && len(mapped) > 0; n-- {
				unmapOne()
			}
		default: // the mutator filling a fresh increment
			for n := rng.Intn(40); n > 0; n-- {
				mapOne(step)
			}
		}
		if s.MappedFrames() != len(mapped) {
			t.Fatalf("step %d: MappedFrames = %d, want %d", step, s.MappedFrames(), len(mapped))
		}
	}
}

// The recycle queue itself must stop allocating once it has reached the
// run's high-water mark, bursts included.
func TestRecycleQueueBurstZeroAlloc(t *testing.T) {
	s := NewSpace(256, NewRegistry())
	var frames [48]Frame
	burst := func() {
		for i := range frames {
			frames[i] = s.MapFrame()
		}
		for _, f := range frames[:32] {
			s.UnmapFrame(f)
		}
		for i := range frames[:32] {
			frames[i] = s.MapFrame()
		}
		for _, f := range frames {
			s.UnmapFrame(f)
		}
	}
	for i := 0; i < 4; i++ {
		burst()
	}
	if n := testing.AllocsPerRun(200, burst); n != 0 {
		t.Errorf("map/unmap bursts allocate %v times per burst in steady state, want 0", n)
	}
}

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s on a released space did not panic", what)
		}
	}()
	fn()
}

// A released Space's slabs may already back another run's heap: every
// way of reaching them must fault like an unmapped frame.
func TestReleasedSpaceFaults(t *testing.T) {
	s := NewSpace(512, NewRegistry())
	a := s.FrameBase(s.MapFrame())
	s.UnmapFrame(s.MapFrame()) // one pooled slab too
	s.SetWord(a, 7)
	s.Release()
	if s.MappedFrames() != 0 || s.Mapped(s.FrameOf(a)) {
		t.Error("released space still reports mapped frames")
	}
	mustPanic(t, "Word", func() { s.Word(a) })
	mustPanic(t, "SetWord", func() { s.SetWord(a, 1) })
	mustPanic(t, "ZeroRange", func() { s.ZeroRange(a, 8) })
	mustPanic(t, "MapFrame", func() { s.MapFrame() })
	s.Release() // idempotent
}

// Slabs handed over by Release arrive zeroed in the next Space, all of
// them, even across Go collections, and a Space of another frame size
// never sees them.
func TestReleaseHandsZeroedSlabsToNextSpace(t *testing.T) {
	const frameBytes = 1 << 19 // a size no other test in this package uses
	const n = 8
	s := NewSpace(frameBytes, NewRegistry())
	owned := map[*uint32]bool{}
	for i := 0; i < n; i++ {
		f := s.MapFrame()
		owned[&s.frames[f][0]] = true
		for a := s.FrameBase(f); a < s.FrameLimit(f); a += 4096 {
			s.SetWord(a, 0xdeadbeef)
		}
	}
	s.UnmapFrame(1) // handed over from the Space's own list as well
	s.Release()
	runtime.GC()
	runtime.GC()

	other := NewSpace(frameBytes>>1, NewRegistry())
	if f := other.MapFrame(); len(other.frames[f]) != frameBytes>>1>>WordShift {
		t.Fatalf("space of another frame size got a %d-word slab", len(other.frames[f]))
	}

	s2 := NewSpace(frameBytes, NewRegistry())
	inherited := 0
	for i := 0; i < n; i++ {
		f := s2.MapFrame()
		if owned[&s2.frames[f][0]] {
			inherited++
		}
		for a := s2.FrameBase(f); a < s2.FrameLimit(f); a += 4096 {
			if w := s2.Word(a); w != 0 {
				t.Fatalf("inherited slab not zeroed: word at %v = %#x", a, w)
			}
		}
	}
	if inherited != n {
		t.Errorf("next space inherited %d of %d released slabs", inherited, n)
	}
}

// The slab lists need no cap: a slab is made only when its list is
// empty, so a list holds what the process once had mapped at the same
// time and never more.
func TestReleasedSlabListHoldsPeakUse(t *testing.T) {
	const frameBytes = 1 << 17 // a size no other test in this package uses
	list := &slabLists[17]
	list.items = nil
	mapped := func(frames int) *Space {
		s := NewSpace(frameBytes, NewRegistry())
		for i := 0; i < frames; i++ {
			s.MapFrame()
		}
		return s
	}
	a, b := mapped(8), mapped(8)
	a.Release()
	b.Release()
	mapped(3).Release()
	if got := list.Len(); got != 16 {
		t.Errorf("two spaces of 8 frames live at once, then one of 3: the list holds %d slabs, want 16", got)
	}
	other := NewSpace(frameBytes>>1, NewRegistry())
	if f := other.MapFrame(); len(other.frames[f]) != frameBytes>>1>>WordShift {
		t.Fatalf("space of another frame size got a %d-word slab", len(other.frames[f]))
	}
	if got := list.Len(); got != 16 {
		t.Errorf("a space of another frame size took %d of the list's slabs", 16-got)
	}
}

// TestResetRegistryRedefinesInPlace: a registry that is Reset and defined
// into again hands out the IDs a new one would, in its old descriptors,
// allocating nothing, and knows none of the names it had: a registry
// handed from one benchmark to another must not keep the first one's.
func TestResetRegistryRedefinesInPlace(t *testing.T) {
	r := NewRegistry()
	old := []*TypeDesc{r.DefineScalar("a.node", 2, 3), r.DefineRefArray("a.refs"), r.DefineWordArray("a.words")}
	r.Reset()
	if r.Len() != 0 || r.Lookup("a.node") != nil {
		t.Fatalf("a reset registry still has %d types, a.node %v", r.Len(), r.Lookup("a.node"))
	}
	define := func(r *Registry, into []*TypeDesc) {
		into[0], into[1] = r.DefineWordArray("b.words"), r.DefineScalar("b.node", 1, 4)
	}
	fresh, got := make([]*TypeDesc, 2), make([]*TypeDesc, 2)
	define(NewRegistry(), fresh)
	if n := testing.AllocsPerRun(1, func() { r.Reset(); define(r, got) }); n != 0 {
		t.Errorf("resetting a registry and defining into it made %v Go objects, want 0", n)
	}
	for i, td := range got {
		if *td != *fresh[i] {
			t.Errorf("type %d on a reset registry: %+v, on a new one %+v", i, *td, *fresh[i])
		}
		if td != old[i] {
			t.Errorf("type %d was not defined into the reset registry's descriptor", i)
		}
	}
	if r.Lookup("b.words") != got[0] || r.Get(2) != got[1] {
		t.Error("a reset registry does not find the types defined into it")
	}
	if r.Lookup("a.refs") != nil {
		t.Error("a reset registry finds a name defined before the reset")
	}
}
