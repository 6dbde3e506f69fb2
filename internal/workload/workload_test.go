package workload

import (
	"math/rand"
	"runtime"
	"testing"

	"beltway/internal/collectors"
	"beltway/internal/core"
	"beltway/internal/gc"
	"beltway/internal/heap"
	"beltway/internal/vm"
)

// runScaled executes a benchmark at the given scale on a fresh collector,
// returning the collector for inspection.
func runScaled(t *testing.T, b *Benchmark, cfg core.Config, scale float64, validate bool) *core.Heap {
	t.Helper()
	types := heap.NewRegistry()
	h, err := core.New(cfg, types)
	if err != nil {
		t.Fatal(err)
	}
	m := vm.New(h)
	if validate {
		m.EnableValidation()
	}
	ctx := &Ctx{M: m, Types: types, Rng: rand.New(rand.NewSource(1)), Scale: scale}
	if err := m.Run(func() {
		b.Body(ctx)
		if validate {
			// Guarantee the oracle sees at least one incremental and one
			// full collection even in roomy heaps.
			m.Collect(false)
			m.Collect(true)
		}
	}); err != nil {
		t.Fatalf("%s on %s: %v", b.Name, cfg.Name, err)
	}
	return h
}

func bigOpts() collectors.Options {
	return collectors.Options{HeapBytes: 32 << 20, FrameBytes: 16 * 1024}
}

// TestBenchmarksCompleteAndAllocate checks that each benchmark runs to
// completion in a roomy heap and allocates a meaningful volume with the
// right relative ordering (jess/jack allocate the most, db the least).
func TestBenchmarksCompleteAndAllocate(t *testing.T) {
	alloc := map[string]uint64{}
	for _, b := range All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			h := runScaled(t, b, collectors.XX100(25, bigOpts()), 0.25, false)
			c := h.Clock().Counters
			if c.BytesAllocated < 200*1024 {
				t.Errorf("%s allocated only %d bytes at scale 0.25", b.Name, c.BytesAllocated)
			}
			if c.PointerStores == 0 {
				t.Errorf("%s performed no pointer stores", b.Name)
			}
			alloc[b.Name] = c.BytesAllocated
			t.Logf("%s: %.1f MB allocated, %d objects, %d GCs, %.0f%% gc time",
				b.Name, float64(c.BytesAllocated)/(1<<20), c.ObjectsAllocated,
				h.Collections(), 100*h.Clock().GCFraction())
		})
	}
}

// TestBenchmarksDeterministic verifies bit-identical counters across two
// runs with the same seed.
func TestBenchmarksDeterministic(t *testing.T) {
	for _, b := range All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			h1 := runScaled(t, b, collectors.XX100(25, bigOpts()), 0.1, false)
			h2 := runScaled(t, b, collectors.XX100(25, bigOpts()), 0.1, false)
			if h1.Clock().Counters != h2.Clock().Counters {
				t.Errorf("%s not deterministic:\n%+v\n%+v",
					b.Name, h1.Clock().Counters, h2.Clock().Counters)
			}
			if h1.Clock().TotalTime() != h2.Clock().TotalTime() {
				t.Errorf("%s timelines differ", b.Name)
			}
		})
	}
}

// TestBenchmarksValidated runs every benchmark tiny with the shadow-graph
// oracle enabled, on both barrier styles.
func TestBenchmarksValidated(t *testing.T) {
	if testing.Short() {
		t.Skip("validation runs are slow")
	}
	o := collectors.Options{HeapBytes: 2 << 20, FrameBytes: 8 * 1024}
	cfgs := []core.Config{collectors.XX100(25, o), collectors.Appel(o), collectors.BOF(25, o)}
	for _, b := range All() {
		for _, cfg := range cfgs {
			b, cfg := b, cfg
			t.Run(b.Name+"/"+cfg.Name, func(t *testing.T) {
				h := runScaled(t, b, cfg, 0.1, true)
				if h.Collections() < 2 {
					t.Errorf("only %d collections; oracle under-exercised", h.Collections())
				}
			})
		}
	}
}

// TestSuiteRegistry checks the catalog plumbing.
func TestSuiteRegistry(t *testing.T) {
	if len(All()) != 6 {
		t.Fatalf("suite has %d benchmarks, want 6", len(All()))
	}
	for _, name := range []string{"jess", "raytrace", "db", "javac", "jack", "pseudojbb"} {
		if Get(name) == nil {
			t.Errorf("Get(%q) = nil", name)
		}
	}
	if Get("nosuch") != nil {
		t.Error("Get of unknown benchmark should be nil")
	}
	if len(Names()) != 6 {
		t.Error("Names length mismatch")
	}
	for _, b := range All() {
		if b.PaperMinHeapMB <= 0 || b.PaperAllocMB <= 0 {
			t.Errorf("%s missing Table 1 reference numbers", b.Name)
		}
	}
}

// TestChunkedTable exercises the chunked reference table the workloads
// use in place of large arrays (GCTk had no large object space).
func TestChunkedTable(t *testing.T) {
	types := heap.NewRegistry()
	h, err := core.New(collectors.XX100(25, bigOpts()), types)
	if err != nil {
		t.Fatal(err)
	}
	m := vm.New(h)
	ctx := &Ctx{M: m, Types: types, Rng: rand.New(rand.NewSource(1)), Scale: 1}
	arr := types.DefineRefArray("tt.arr")
	node := types.DefineScalar("tt.node", 0, 1)
	err = m.Run(func() {
		const n = 1000 // spans multiple 256-slot buckets
		tb := newTable(ctx, arr, n)
		for i := 0; i < n; i += 7 {
			m.Push()
			nd := m.Alloc(node, 0)
			m.SetData(nd, 0, uint32(i))
			tb.Set(m, i, nd)
			m.Pop()
		}
		m.Collect(true)
		for i := 0; i < n; i++ {
			if i%7 == 0 {
				if tb.IsNil(m, i) {
					t.Fatalf("slot %d lost", i)
				}
				m.Push()
				nd := tb.Get(m, i)
				if m.GetData(nd, 0) != uint32(i) {
					t.Fatalf("slot %d corrupted", i)
				}
				m.Pop()
			} else if !tb.IsNil(m, i) {
				t.Fatalf("slot %d unexpectedly set", i)
			}
		}
		tb.SetNil(m, 0)
		if !tb.IsNil(m, 0) {
			t.Error("SetNil failed")
		}
		tb.release(m)
		m.Collect(true) // table buckets now collectible
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestReleasedArenaCarvesNothing: a run's tables, windows and buffers are
// carved from its context's arena, which Release rewinds. The first run
// grows it to what the run carved; a run of the same sizes on the context
// after it carves every handle slice from it, zeroed, making no Go
// object, however many Go collections ran in between.
func TestReleasedArenaCarvesNothing(t *testing.T) {
	sizes := []int{700, 16, 4096, 60, 1}
	carve := func(c *Ctx) {
		for _, n := range sizes {
			s := c.handles(n)
			if len(s) != n || cap(s) != n {
				t.Fatalf("carved %d handles with capacity %d, want %d", len(s), cap(s), n)
			}
			for i, h := range s {
				if h != gc.NilHandle {
					t.Fatalf("handle %d of a carved slice is %d, want nil", i, h)
				}
				s[i] = gc.Handle(i + 1) // left behind for the next run to clear
			}
		}
	}
	c := &Ctx{}
	carve(c)
	c.Release()
	runtime.GC()
	runtime.GC()
	if n := testing.AllocsPerRun(5, func() {
		carve(c)
		c.Release()
	}); n != 0 {
		t.Errorf("a run on a released arena made %v Go objects, want 0", n)
	}
}
