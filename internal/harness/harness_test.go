package harness

import (
	"math"
	"testing"

	"beltway/internal/collectors"
	"beltway/internal/core"
	"beltway/internal/engine"
	"beltway/internal/mmu"
	"beltway/internal/workload"
)

func testEnv() Env {
	e := DefaultEnv()
	e.Scale = 0.25
	e.PhysMemBytes = 2 << 20
	return e
}

func xx100Func(x int, env Env) ConfigFunc {
	return func(heapBytes int) core.Config { return collectors.XX100(x, env.Options(heapBytes)) }
}

func TestHeapSizesLogSpaced(t *testing.T) {
	sizes := HeapSizes(1<<20, 3, 33, 16*1024)
	if len(sizes) != 33 {
		t.Fatalf("got %d sizes", len(sizes))
	}
	if sizes[0] != 1<<20 {
		t.Errorf("first size %d, want min heap", sizes[0])
	}
	if got := float64(sizes[32]) / float64(sizes[0]); got < 2.8 || got > 3.2 {
		t.Errorf("last/first = %.2f, want ~3", got)
	}
	for i := 1; i < len(sizes); i++ {
		if sizes[i] <= sizes[i-1] {
			t.Errorf("sizes not strictly increasing at %d", i)
		}
		if sizes[i]%(16*1024) != 0 {
			t.Errorf("size %d not frame aligned", sizes[i])
		}
	}
}

// TestFindMinHeapAndRun reproduces the Table 1 pipeline on one benchmark:
// find Appel's min heap, check the benchmark completes there and OOMs
// meaningfully below it.
func TestFindMinHeapAndRun(t *testing.T) {
	env := testEnv()
	bench := workload.Get("db")
	min, err := FindMinHeap(AppelConfig(env), bench, env)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("db min heap at scale %.2f: %d KB", env.Scale, min/1024)
	res, err := RunOne(AppelConfig(env)(min), bench, env)
	if err != nil {
		t.Fatal(err)
	}
	if res.OOM {
		t.Fatal("completed min heap reported OOM")
	}
	if res.Collections == 0 {
		t.Error("min-heap run performed no collections")
	}
	below, err := RunOne(AppelConfig(env)(min-2*env.FrameBytes), bench, env)
	if err != nil {
		t.Fatal(err)
	}
	if !below.OOM {
		t.Error("run below min heap did not OOM (min not minimal)")
	}
}

// TestMinHeapOrdering checks the suite's min heaps preserve the paper's
// Table 1 ordering: pseudojbb and javac largest, jess smallest-ish.
func TestMinHeapOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("min-heap search over the suite is slow")
	}
	env := testEnv()
	mins, err := MinHeaps(engine.New(engine.Config{}), engine.Key{Experiment: "minheap", Collector: "Appel"}, workload.All(), env)
	if err != nil {
		t.Fatal(err)
	}
	for n, m := range mins {
		t.Logf("min heap %-10s = %4d KB", n, m/1024)
	}
	if mins["pseudojbb"] <= mins["jess"] {
		t.Errorf("pseudojbb min (%d) should exceed jess min (%d), as in Table 1",
			mins["pseudojbb"], mins["jess"])
	}
	if mins["javac"] <= mins["raytrace"] {
		t.Errorf("javac min (%d) should exceed raytrace min (%d), as in Table 1",
			mins["javac"], mins["raytrace"])
	}
}

// TestSweepAndNormalize runs a miniature two-collector sweep and checks
// the normalization invariants: every relative value >= 1-epsilon, the
// best point == 1, NaN only where OOM.
func TestSweepAndNormalize(t *testing.T) {
	env := testEnv()
	bench := workload.Get("jess")
	min, err := FindMinHeap(AppelConfig(env), bench, env)
	if err != nil {
		t.Fatal(err)
	}
	points, err := Sweep{
		Env: env,
		Collectors: []Collector{
			{Name: "Appel", Make: AppelConfig(env)},
			{Name: "Beltway 25.25.100", Make: xx100Func(25, env)},
		},
		Benchmarks: []*workload.Benchmark{bench},
		MinHeaps:   map[string]int{"jess": min},
		Points:     7,
	}.Run(NewExecutor(engine.Config{}))
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 || len(points[0]) != 7 {
		t.Fatalf("sweep shape %dx%d", len(points), len(points[0]))
	}
	for ci := range points {
		for pi, p := range points[ci] {
			want := float64(p.HeapBytes) / float64(min)
			if p.HeapRel != want || p.Results[0].HeapBytes != p.HeapBytes {
				t.Errorf("point [%d][%d]: HeapRel %v (want size/min = %v), HeapBytes %d vs its result's %d",
					ci, pi, p.HeapRel, want, p.HeapBytes, p.Results[0].HeapBytes)
			}
		}
	}
	rel := RelativeToBest(points, TotalTime)
	sawOne := false
	for ci := range rel {
		for pi, v := range rel[ci] {
			if math.IsNaN(v) {
				if !points[ci][pi].Results[0].OOM {
					t.Errorf("NaN without OOM at [%d][%d]", ci, pi)
				}
				continue
			}
			if v < 0.9999 {
				t.Errorf("relative value %v < 1", v)
			}
			if v < 1.0001 {
				sawOne = true
			}
		}
	}
	if !sawOne {
		t.Error("no point achieved the best value")
	}
	// GC time should broadly fall as heap grows for a completed series.
	gcrel := AbsoluteGeoMean(points, GCTime)
	for ci := range gcrel {
		first, last := gcrel[ci][0], gcrel[ci][len(gcrel[ci])-1]
		if !math.IsNaN(first) && !math.IsNaN(last) && last > first {
			t.Errorf("collector %d: GC time rose with heap growth (%.0f -> %.0f)",
				ci, first, last)
		}
	}
}

// TestRunOneDeterministic: identical (config, benchmark, env) must yield
// bit-identical measurements — the property every figure relies on.
func TestRunOneDeterministic(t *testing.T) {
	env := testEnv()
	cfg := xx100Func(25, env)(1 << 20)
	b := workload.Get("javac")
	r1, err := RunOne(cfg, b, env)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := RunOne(cfg, b, env)
	if err != nil {
		t.Fatal(err)
	}
	if r1.TotalTime != r2.TotalTime || r1.GCTime != r2.GCTime ||
		r1.Counters != r2.Counters || r1.Collections != r2.Collections {
		t.Errorf("nondeterministic results:\n%+v\n%+v", r1.Counters, r2.Counters)
	}
	if len(r1.Pauses) != len(r2.Pauses) {
		t.Errorf("pause logs differ: %d vs %d", len(r1.Pauses), len(r2.Pauses))
	}
	// A different seed must change the timeline (the PRNG is live).
	env2 := env
	env2.Seed++
	r3, err := RunOne(cfg, b, env2)
	if err != nil {
		t.Fatal(err)
	}
	if r3.TotalTime == r1.TotalTime && r3.Counters == r1.Counters {
		t.Error("seed change had no effect")
	}
}

// TestResultMMUDegenerate: Result.MMU is mmu.Sample, guards included — one
// point, and a Result that measured nothing (a failed job's placeholder),
// used to sample NaN windows.
func TestResultMMUDegenerate(t *testing.T) {
	env := testEnv()
	res, err := RunOne(xx100Func(25, env)(1<<20), workload.Get("jess"), env)
	if err != nil {
		t.Fatal(err)
	}
	for name, curve := range map[string]mmu.Curve{"one point": res.MMU(1), "all-zero Result": (&Result{}).MMU(64)} {
		if len(curve.Points) != 0 || math.IsNaN(curve.At(res.MaxPause)) || math.IsNaN(curve.Throughput) {
			t.Errorf("%s: %+v", name, curve)
		}
	}
	if full := res.MMU(24); len(full.Points) != 24 || full.MaxPause != res.MaxPause {
		t.Errorf("24-point curve: %d points, max pause %v vs %v", len(full.Points), full.MaxPause, res.MaxPause)
	}
}
