package engine

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func intJob(key string, v int) Job {
	return Job{
		Key: Key{Experiment: "test", Benchmark: key},
		Run: func() (any, Outcome, error) { return v, OK, nil },
	}
}

func payloadInt(t *testing.T, rec Record) int {
	t.Helper()
	var v int
	if err := json.Unmarshal(rec.Payload, &v); err != nil {
		t.Fatalf("payload %q: %v", rec.Payload, err)
	}
	return v
}

func TestRunReturnsRecordsInSubmissionOrder(t *testing.T) {
	e := New(Config{Workers: 8})
	var jobs []Job
	for i := 0; i < 100; i++ {
		jobs = append(jobs, intJob(fmt.Sprint(i), i*i))
	}
	recs, err := e.Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 100 {
		t.Fatalf("got %d records", len(recs))
	}
	for i, rec := range recs {
		if rec.Outcome != OK {
			t.Fatalf("job %d outcome %s", i, rec.Outcome)
		}
		if got := payloadInt(t, rec); got != i*i {
			t.Errorf("record %d carries payload %d, want %d", i, got, i*i)
		}
		if rec.Key.Benchmark != fmt.Sprint(i) {
			t.Errorf("record %d has key %s", i, rec.Key)
		}
	}
}

// TestPanicIsolation: a panicking job is recorded as outcome "panic" with
// the recovered message, and the remaining jobs still complete.
func TestPanicIsolation(t *testing.T) {
	e := New(Config{Workers: 4})
	var jobs []Job
	for i := 0; i < 20; i++ {
		i := i
		if i == 7 {
			jobs = append(jobs, Job{
				Key: Key{Benchmark: "boom"},
				Run: func() (any, Outcome, error) { panic("kaboom at job 7") },
			})
			continue
		}
		jobs = append(jobs, intJob(fmt.Sprint(i), i))
	}
	recs, err := e.Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i, rec := range recs {
		if i == 7 {
			if rec.Outcome != Panic {
				t.Errorf("job 7 outcome %s, want panic", rec.Outcome)
			}
			if !strings.Contains(rec.Error, "kaboom at job 7") {
				t.Errorf("job 7 error %q lacks recovered message", rec.Error)
			}
			continue
		}
		if rec.Outcome != OK {
			t.Errorf("job %d outcome %s, want ok despite job 7 panicking", i, rec.Outcome)
		}
	}
}

func TestJobErrorRecorded(t *testing.T) {
	e := New(Config{Workers: 2})
	recs, err := e.Run([]Job{{
		Key: Key{Benchmark: "bad"},
		Run: func() (any, Outcome, error) { return nil, "", errors.New("no such collector") },
	}})
	if err != nil {
		t.Fatal(err)
	}
	if recs[0].Outcome != Errored || !strings.Contains(recs[0].Error, "no such collector") {
		t.Errorf("got %+v", recs[0])
	}
}

// TestWorkersRunConcurrently: eight sleeping jobs on eight workers must
// overlap. Sleeps need no CPU, so this holds even on a single-core
// machine; a serialized pool would take n*d.
func TestWorkersRunConcurrently(t *testing.T) {
	const n = 8
	const d = 100 * time.Millisecond
	e := New(Config{Workers: n})
	var jobs []Job
	for i := 0; i < n; i++ {
		jobs = append(jobs, Job{
			Key: Key{Benchmark: fmt.Sprint(i)},
			Run: func() (any, Outcome, error) { time.Sleep(d); return 0, OK, nil },
		})
	}
	start := time.Now()
	if _, err := e.Run(jobs); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > n*d/2 {
		t.Errorf("%d sleeping jobs on %d workers took %v; pool appears serialized", n, n, elapsed)
	}
}

func TestCheckpointResume(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.jsonl")

	var executed atomic.Int64
	mkJobs := func(failAt int) []Job {
		var jobs []Job
		for i := 0; i < 10; i++ {
			i := i
			jobs = append(jobs, Job{
				Key: Key{Benchmark: fmt.Sprint(i)},
				Run: func() (any, Outcome, error) {
					executed.Add(1)
					if i == failAt {
						return nil, "", errors.New("flaky")
					}
					return i * 10, OK, nil
				},
			})
		}
		return jobs
	}

	// First run: job 3 fails, the rest complete and are checkpointed.
	e1 := New(Config{Workers: 4, Checkpoint: path})
	recs, err := e1.Run(mkJobs(3))
	if err != nil {
		t.Fatal(err)
	}
	if err := e1.Close(); err != nil {
		t.Fatal(err)
	}
	if recs[3].Outcome != Errored {
		t.Fatalf("job 3 outcome %s", recs[3].Outcome)
	}
	if got := executed.Load(); got != 10 {
		t.Fatalf("first run executed %d jobs, want 10", got)
	}

	// Resume: only the failed job re-executes; payloads come back from
	// the checkpoint for the other nine.
	executed.Store(0)
	e2 := New(Config{Workers: 4, Checkpoint: path, Resume: true})
	recs2, err := e2.Run(mkJobs(-1))
	if err != nil {
		t.Fatal(err)
	}
	if err := e2.Close(); err != nil {
		t.Fatal(err)
	}
	if got := executed.Load(); got != 1 {
		t.Fatalf("resumed run executed %d jobs, want 1 (only the failed one)", got)
	}
	for i, rec := range recs2 {
		if rec.Outcome != OK {
			t.Errorf("resumed job %d outcome %s", i, rec.Outcome)
		}
		if got := payloadInt(t, rec); got != i*10 {
			t.Errorf("resumed job %d payload %d, want %d", i, got, i*10)
		}
		if wantResumed := i != 3; rec.Resumed != wantResumed {
			t.Errorf("job %d resumed=%v, want %v", i, rec.Resumed, wantResumed)
		}
	}

	// A third engine sees everything completed.
	executed.Store(0)
	e3 := New(Config{Workers: 4, Checkpoint: path, Resume: true})
	if _, err := e3.Run(mkJobs(-1)); err != nil {
		t.Fatal(err)
	}
	e3.Close()
	if got := executed.Load(); got != 0 {
		t.Fatalf("fully-checkpointed run executed %d jobs, want 0", got)
	}
}

// TestCheckpointToleratesPartialTrailingLine simulates a run killed
// mid-write: the checkpoint ends in a truncated record, which must be
// skipped while every complete record loads.
func TestCheckpointToleratesPartialTrailingLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.jsonl")
	e := New(Config{Workers: 2, Checkpoint: path})
	if _, err := e.Run([]Job{intJob("a", 1), intJob("b", 2)}); err != nil {
		t.Fatal(err)
	}
	e.Close()
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"key":{"benchmark":"c"},"outcome":"o`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	prior, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(prior) != 2 {
		t.Fatalf("loaded %d records, want 2 (partial line skipped)", len(prior))
	}
}

func TestMissingCheckpointResumesAsFreshRun(t *testing.T) {
	path := filepath.Join(t.TempDir(), "never-written.jsonl")
	e := New(Config{Workers: 1, Checkpoint: path, Resume: true})
	recs, err := e.Run([]Job{intJob("a", 7)})
	if err != nil {
		t.Fatal(err)
	}
	e.Close()
	if recs[0].Outcome != OK || recs[0].Resumed {
		t.Fatalf("got %+v", recs[0])
	}
}

func TestReporterProgress(t *testing.T) {
	var lines []string
	e := New(Config{Workers: 1, Progress: func(s string) { lines = append(lines, s) }})
	jobs := []Job{
		intJob("a", 1),
		{Key: Key{Benchmark: "boom"}, Run: func() (any, Outcome, error) { panic("x") }},
		intJob("c", 3),
	}
	if _, err := e.Run(jobs); err != nil {
		t.Fatal(err)
	}
	if len(lines) != 3 {
		t.Fatalf("got %d progress lines, want 3: %q", len(lines), lines)
	}
	p := e.Reporter().Snapshot()
	if p.Done != 3 || p.Total != 3 || p.Failures != 1 {
		t.Errorf("snapshot %+v", p)
	}
	if !strings.Contains(lines[2], "[3/3]") {
		t.Errorf("last line %q lacks [3/3]", lines[2])
	}
	if !strings.Contains(strings.Join(lines, "\n"), "fail=1") {
		t.Errorf("progress lines never reported the failure: %q", lines)
	}
}

// TestOutcomeCompleted pins which outcomes a resume may skip. "budget"
// and "timeout" are outcomes older binaries wrote for runs cut short by
// a cost budget or a wall-clock timeout: such a record is re-executed on
// resume, not reused as a measurement.
func TestOutcomeCompleted(t *testing.T) {
	for o, want := range map[Outcome]bool{
		OK: true, OOM: true,
		Panic: false, Errored: false,
		"budget": false, "timeout": false, "": false,
	} {
		if o.Completed() != want {
			t.Errorf("%s.Completed() = %v, want %v", o, o.Completed(), want)
		}
	}
}

// Key.String indexes checkpoints and sorts the benchmark's grid, so its
// bytes are the format string it was first written with.
func TestKeyStringMatchesSprintf(t *testing.T) {
	for _, k := range []Key{
		{},
		{Experiment: "fig9", Collector: "Beltway 25.25.100", Benchmark: "jess", HeapBytes: 131072},
		{Collector: "Appel", Benchmark: "javac"},
		{Experiment: "minheap", Benchmark: "db", HeapBytes: -4096},
		{Experiment: "a/b", Collector: "", Benchmark: "x y", HeapBytes: 1},
	} {
		want := fmt.Sprintf("%s/%s/%s/%d", k.Experiment, k.Collector, k.Benchmark, k.HeapBytes)
		if got := k.String(); got != want {
			t.Errorf("%#v.String() = %q, want %q", k, got, want)
		}
	}
}
