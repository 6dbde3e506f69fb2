package core_test

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"beltway/internal/collectors"
	"beltway/internal/core"
	"beltway/internal/gc"
	"beltway/internal/heap"
	"beltway/internal/markregion"
	"beltway/internal/vm"
)

// driveWarmScript runs a seeded random object graph on h — scalars,
// reference arrays, a boot image pointing into the heap — and records the
// heap image, counters and clock after every collection.
func driveWarmScript(h *core.Heap, types *heap.Registry, seed int64) ([]kernelPoint, error) {
	var points []kernelPoint
	h.SetHooks(gc.Hooks{PostGC: func() {
		points = append(points, kernelPoint{
			image:    heapImage(h.Space()),
			counters: h.Clock().Counters,
			now:      math.Float64bits(h.Clock().Now()),
		})
	}})
	m := vm.New(h)
	rng := rand.New(rand.NewSource(seed))
	pair := types.DefineScalar("pair", 2, 2)
	refs := types.DefineRefArray("refs")
	boot := types.DefineScalar("boot", 3, 0)
	var live []gc.Handle
	drop := func() {
		i := rng.Intn(len(live))
		m.Release(live[i])
		live[i] = live[len(live)-1]
		live = live[:len(live)-1]
	}
	err := m.Run(func() {
		boots := []gc.Handle{m.AllocImmortal(boot, 0), m.AllocImmortal(boot, 0)}
		live = append(live, m.Alloc(pair, 0))
		for op := 0; op < 6000; op++ {
			switch r := rng.Intn(100); {
			case r < 45:
				live = append(live, m.Alloc(pair, 0))
			case r < 52:
				live = append(live, m.Alloc(refs, 1+rng.Intn(40)))
			case r < 88:
				src := live[rng.Intn(len(live))]
				if n := m.TypeOf(src).NumRefs(m.Length(src)); n > 0 {
					m.SetRef(src, rng.Intn(n), live[rng.Intn(len(live))])
				}
			case r < 91:
				m.SetRef(boots[rng.Intn(len(boots))], rng.Intn(3), live[rng.Intn(len(live))])
			case r < 92:
				m.Collect(rng.Intn(4) == 0)
			default:
				if len(live) > 8 {
					drop()
				}
			}
			for len(live) > 300 {
				drop()
			}
		}
		m.Collect(true)
	})
	return points, err
}

// TestWarmHeapMatchesCold holds a heap Reset after a run to one built
// from nothing, on every substrate and barrier the kernel tests cover:
// the same script must collect at the same points to the same heap
// images, counters and clock, and leave the same per-frame tables; the
// warm heap's invariants hold, its spares included. Each configuration
// is built warm three times, each by a Reset of a donor heap: one of the
// same configuration with four times the heap (longer tables, line
// metadata of the same geometry), one whose lines are twice as long
// (line metadata the heap must not take), and one of the previous
// configuration in the list (cards or lines it does not have itself).
func TestWarmHeapMatchesCold(t *testing.T) {
	cases := kernelCases(t)
	for i, tc := range cases {
		cfg := tc.cfg
		big, longLines := cfg, cfg
		big.HeapBytes *= 4
		longLines.MRLineBytes = 2 * markregion.DefaultLineBytes
		donors := map[string]core.Config{
			"same, 4x heap":      big,
			"same, longer lines": longLines,
			"previous":           cases[(i+len(cases)-1)%len(cases)].cfg,
		}
		t.Run(cfg.Name, func(t *testing.T) {
			types := heap.NewRegistry()
			cold, err := core.New(cfg, types)
			if err != nil {
				t.Fatal(err)
			}
			want, wantErr := driveWarmScript(cold, types, 1)
			if len(want) < 10 {
				t.Fatalf("%d collections: the script does not exercise the heap", len(want))
			}
			for name, dcfg := range donors {
				dtypes := heap.NewRegistry()
				warm, err := core.New(dcfg, dtypes)
				if err != nil {
					t.Fatal(err)
				}
				driveWarmScript(warm, dtypes, 2)
				types := heap.NewRegistry()
				if err := warm.Reset(cfg, types); err != nil {
					t.Fatal(err)
				}
				got, gotErr := driveWarmScript(warm, types, 1)
				if (gotErr == nil) != (wantErr == nil) {
					t.Fatalf("donor %s: warm run ended %v, cold %v", name, gotErr, wantErr)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("donor %s: warm heap's collections differ from the cold heap's (%d and %d collections)", name, len(got), len(want))
				}
				if w, c := warm.FrameTables(), cold.FrameTables(); !reflect.DeepEqual(w, c) {
					t.Errorf("donor %s: per-frame tables differ\nwarm %+v\ncold %+v", name, w, c)
				}
				if err := warm.CheckInvariants(); err != nil {
					t.Errorf("donor %s: %v", name, err)
				}
			}
		})
	}
}

// TestReleasedHeapPanics: a released heap keeps its clock and count, and
// nothing else a run could reach another run's storage through.
func TestReleasedHeapPanics(t *testing.T) {
	h, node := benchHeap(t, collectors.XX100(25, testOptions(256)))
	a := mustAlloc(t, h, node)
	h.Roots().Add(a)
	if err := h.Collect(true); err != nil {
		t.Fatal(err)
	}
	h.Release()
	h.Release() // harmless
	if h.Clock().Counters.ObjectsAllocated != 1 || h.Collections() != 1 {
		t.Errorf("the released heap's clock and count are gone: %+v, %d collections", h.Clock().Counters, h.Collections())
	}
	for what, use := range map[string]func(){
		"Roots":   func() { h.Roots().Add(a) },
		"Remsets": func() { h.Remsets().Insert(1, 2, a) },
		"Space":   func() { h.Space().Word(a) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s of a released heap did not panic", what)
				}
			}()
			use()
		}()
	}
}

// TestResetHeapBuildsNothing: a heap Reset after its run is built in the
// storage that run grew, not in another heap's: building it makes no Go
// object, nor does a run on it once the heap has served that run,
// however many Go collections ran in between; and a heap live beside it
// is untouched. (The first warm runs may still grow the frame lists of
// spare increments, which are handed out by recency, not by role; they
// settle within a few runs.)
func TestResetHeapBuildsNothing(t *testing.T) {
	cfg := collectors.XX100(25, testOptions(256))
	types := heap.NewRegistry()
	node := types.DefineScalar("n", 2, 2)
	h, err := core.New(cfg, types)
	if err != nil {
		t.Fatal(err)
	}
	other, otherNode := benchHeap(t, cfg)
	other.Roots().Add(mustAlloc(t, other, otherNode))
	reset := func() {
		if err := h.Reset(cfg, types); err != nil {
			t.Fatal(err)
		}
	}
	run := func() {
		reset()
		for i := 0; i < 2000; i++ {
			a := mustAlloc(t, h, node)
			if i%8 == 0 {
				h.Roots().Add(a)
			}
		}
		if err := h.Collect(true); err != nil {
			t.Fatal(err)
		}
		h.Release()
	}
	run()
	runtime.GC()
	runtime.GC()
	if n := testing.AllocsPerRun(5, func() { reset(); h.Release() }); n != 0 {
		t.Errorf("building a heap on its released run made %v Go objects, want 0", n)
	}
	settled := false
	for i := 0; i < 8 && !settled; i++ {
		settled = testing.AllocsPerRun(1, run) == 0
	}
	if !settled {
		t.Fatal("eight warm runs each made a Go object")
	}
	if n := testing.AllocsPerRun(5, run); n != 0 {
		t.Errorf("a run on a reset heap made %v Go objects, want 0", n)
	}
	if err := other.Collect(true); err != nil {
		t.Fatal(err)
	}
	if got := other.Clock().Counters.ObjectsAllocated; got != 1 || other.Collections() != 1 {
		t.Errorf("the heap beside it allocated %d objects and ran %d collections, want 1 and 1", got, other.Collections())
	}
	if err := other.CheckInvariants(); err != nil {
		t.Error(err)
	}
}
