package harness

import (
	"math"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"beltway/internal/core"
	"beltway/internal/engine"
	"beltway/internal/stats"
	"beltway/internal/workload"
)

func smallEnv(t *testing.T) (Env, *workload.Benchmark, int) {
	t.Helper()
	env := EnvForScale(0.1)
	bench := workload.Get("jess")
	min, err := FindMinHeap(AppelConfig(env), bench, env)
	if err != nil {
		t.Fatal(err)
	}
	return env, bench, min
}

// TestSweepPanicIsolation: a collector whose ConfigFunc panics is
// recorded as outcome "panic" with the recovered message, and every job
// of the other collector still completes.
func TestSweepPanicIsolation(t *testing.T) {
	env, bench, min := smallEnv(t)
	boom := Collector{Name: "boom", Make: func(heapBytes int) core.Config {
		panic("configfunc exploded")
	}}
	points, err := Sweep{
		Env:        env,
		Collectors: []Collector{{Name: "Appel", Make: AppelConfig(env)}, boom},
		Benchmarks: []*workload.Benchmark{bench},
		MinHeaps:   map[string]int{bench.Name: min},
		Points:     5,
	}.Run(NewExecutor(engine.Config{Workers: 4}))
	if err != nil {
		t.Fatal(err)
	}
	for pi, p := range points[1] {
		r := p.Results[0]
		if r.Failure == "" || !strings.Contains(r.Failure, "configfunc exploded") {
			t.Errorf("boom point %d: Failure = %q, want recorded panic", pi, r.Failure)
		}
		if !r.Incomplete() {
			t.Errorf("boom point %d not marked incomplete", pi)
		}
	}
	for pi, p := range points[0] {
		r := p.Results[0]
		if r.Failure != "" {
			t.Errorf("appel point %d failed: %s", pi, r.Failure)
		}
		if !r.OOM && r.TotalTime <= 0 {
			t.Errorf("appel point %d has no timeline", pi)
		}
	}
	// Aggregation renders the panicked series as missing data, not zeros.
	rel := RelativeToBest(points, TotalTime)
	for pi, v := range rel[1] {
		if !math.IsNaN(v) {
			t.Errorf("boom series point %d = %v, want NaN", pi, v)
		}
	}
}

// TestSweepDeterministicAcrossWorkers: the same sweep at 1 and 8 workers
// must produce deeply equal results — any divergence means hidden shared
// state in workloads or collectors.
func TestSweepDeterministicAcrossWorkers(t *testing.T) {
	env, bench, min := smallEnv(t)
	run := func(workers int) [][]SweepPoint {
		points, err := Sweep{
			Env: env,
			Collectors: []Collector{
				{Name: "Appel", Make: AppelConfig(env)},
				{Name: "Beltway 25.25.100", Make: xx100Func(25, env)},
			},
			Benchmarks: []*workload.Benchmark{bench},
			MinHeaps:   map[string]int{bench.Name: min},
			Points:     5,
		}.Run(NewExecutor(engine.Config{Workers: workers}))
		if err != nil {
			t.Fatal(err)
		}
		return points
	}
	seq, par := run(1), run(8)
	if !reflect.DeepEqual(seq, par) {
		t.Error("sweep results differ between 1 and 8 workers")
	}
}

// TestSweepCheckpointResume: a second sweep over the same checkpoint
// re-executes nothing and reproduces identical points.
func TestSweepCheckpointResume(t *testing.T) {
	env, bench, min := smallEnv(t)
	path := filepath.Join(t.TempDir(), "sweep.jsonl")
	run := func(resume bool) ([][]SweepPoint, []engine.Record) {
		x := NewExecutor(engine.Config{Workers: 4, Checkpoint: path, Resume: resume})
		points, err := Sweep{
			Env:        env,
			Collectors: []Collector{{Name: "Appel", Make: AppelConfig(env)}},
			Benchmarks: []*workload.Benchmark{bench},
			MinHeaps:   map[string]int{bench.Name: min},
			Points:     5,
		}.Run(x)
		if err != nil {
			t.Fatal(err)
		}
		if err := x.Close(); err != nil {
			t.Fatal(err)
		}
		recs, err := engine.LoadCheckpoint(path)
		if err != nil {
			t.Fatal(err)
		}
		var recList []engine.Record
		for _, r := range recs {
			recList = append(recList, r)
		}
		return points, recList
	}
	first, recs := run(false)
	if len(recs) != 5 {
		t.Fatalf("checkpoint holds %d records, want 5", len(recs))
	}
	second, _ := run(true)
	if !reflect.DeepEqual(first, second) {
		t.Error("resumed sweep differs from original")
	}
}

// TestRunOneCostBudget: a run that exceeds its cost budget aborts
// deterministically with a partial timeline instead of running forever.
func TestRunOneCostBudget(t *testing.T) {
	env, bench, min := smallEnv(t)
	full, err := RunOne(AppelConfig(env)(3*min), bench, env)
	if err != nil {
		t.Fatal(err)
	}
	if full.Aborted || full.TotalTime <= 0 {
		t.Fatalf("baseline run invalid: %+v", full)
	}

	budget := full.TotalTime / 2
	env.CostBudget = budget
	cut, err := RunOne(AppelConfig(env)(3*min), bench, env)
	if err != nil {
		t.Fatal(err)
	}
	if !cut.Aborted {
		t.Fatal("run under half budget not aborted")
	}
	if !cut.Incomplete() {
		t.Error("aborted run should be incomplete")
	}
	if cut.TotalTime < budget || cut.TotalTime > full.TotalTime {
		t.Errorf("aborted timeline %v outside (budget %v, full %v)", cut.TotalTime, budget, full.TotalTime)
	}
	// The budget abort surfaces as outcome "budget" through the executor.
	var outcome engine.Outcome
	x := NewExecutor(engine.Config{Workers: 1, OnRecord: func(rec engine.Record) { outcome = rec.Outcome }})
	col := Collector{Name: "Appel", Make: AppelConfig(env)}
	if _, err := x.RunAll([]RunSpec{col.Spec("", Bench(bench), 3*min, env)}); err != nil {
		t.Fatal(err)
	}
	if outcome != engine.Budget {
		t.Errorf("outcome %s, want budget", outcome)
	}
}

// TestBudgetExceededError pins the stats-level sentinel.
func TestBudgetExceededError(t *testing.T) {
	c := stats.NewClock(stats.DefaultCosts())
	c.Budget = 10
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("no panic past budget")
		}
		be, ok := r.(stats.BudgetExceeded)
		if !ok {
			t.Fatalf("panic value %T", r)
		}
		if be.Budget != 10 || be.Now <= 10 {
			t.Errorf("got %+v", be)
		}
		if !strings.Contains(be.Error(), "budget") {
			t.Errorf("error %q", be.Error())
		}
	}()
	c.Advance(11)
}
