package harness

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"beltway/internal/core"
	"beltway/internal/engine"
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

// TestRunAllNamesAMissingResult: a completed checkpoint record whose
// payload decodes but carries no result is a failed point that says so,
// not a decode error of <nil>.
func TestRunAllNamesAMissingResult(t *testing.T) {
	env := EnvForScale(0.1)
	sp := Collector{Name: "Appel", Make: AppelConfig(env)}.Spec("", Bench(workload.Get("jess")), 1<<20, env)
	line, err := json.Marshal(engine.Record{Key: sp.Key, Outcome: engine.OK, Payload: json.RawMessage(`{"result":null}`)})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "null.jsonl")
	if err := os.WriteFile(path, append(line, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	x := NewExecutor(engine.Config{Workers: 1, Checkpoint: path, Resume: true})
	defer x.Close()
	results, err := x.RunAll([]RunSpec{sp})
	if err != nil {
		t.Fatal(err)
	}
	if want := "checkpoint decode: payload holds no result"; results[0].Failure != want {
		t.Errorf("Failure = %q, want %q", results[0].Failure, want)
	}
}
