package experiments

import (
	"reflect"
	"strings"
	"sync"
	"testing"

	"beltway/internal/harness"
	"beltway/internal/workload"
)

// TestFig9DeterministicAcrossJobs is the determinism regression test for
// the parallel engine: Figure 9 at -points 5 -scale 0.25 rendered with
// one worker and with eight workers must produce identical tables,
// character for character. Any divergence means a run observed shared
// mutable state or results were assembled in completion order.
func TestFig9DeterministicAcrossJobs(t *testing.T) {
	if testing.Short() {
		t.Skip("runs fig9 twice at scale 0.25")
	}
	// Under the race detector the full six-benchmark sweep blows the test
	// timeout, so shrink the workload; the determinism property under test
	// is the same.
	scale, points := 0.25, 5
	var benches []*workload.Benchmark
	if raceEnabled {
		scale, points = 0.1, 3
		benches = []*workload.Benchmark{workload.Get("jess"), workload.Get("javac")}
	}
	render := func(jobs int) string {
		s := New(Opts{
			Env:        harness.EnvForScale(scale),
			Points:     points,
			Benchmarks: benches,
			Jobs:       jobs,
		})
		defer s.Close()
		tables, err := s.Figure9()
		if err != nil {
			t.Fatalf("fig9 with %d jobs: %v", jobs, err)
		}
		var b strings.Builder
		for _, tb := range tables {
			b.WriteString(tb.String())
			b.WriteByte('\n')
		}
		return b.String()
	}
	seq := render(1)
	par := render(8)
	if seq != par {
		t.Errorf("fig9 tables differ between -jobs 1 and -jobs 8:\n--- jobs=1 ---\n%s\n--- jobs=8 ---\n%s", seq, par)
	}
}

// progressFeed collects a suite's engine progress lines, the witness of
// what executed: a request served from the engine's remembered records
// reads "cached".
type progressFeed struct {
	mu    sync.Mutex
	lines []string
}

func (f *progressFeed) add(line string) {
	f.mu.Lock()
	f.lines = append(f.lines, line)
	f.mu.Unlock()
}

// executed counts the jobs that ran: min-heap searches and measurements.
func (f *progressFeed) executed() (mins, runs int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, l := range f.lines {
		switch {
		case strings.Contains(l, "cached"):
		case strings.Contains(l, "minheap/"):
			mins++
		default:
			runs++
		}
	}
	return mins, runs
}

// TestSuiteRepeatedRequestRunsNothing asks one suite eight times over for
// the same min-heap search and the same measurement. Each must execute
// exactly once — the engine progress feed is the witness — and every
// request must observe the same result.
func TestSuiteRepeatedRequestRunsNothing(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a min-heap search")
	}
	var feed progressFeed
	jess := workload.Get("jess")
	s := New(Opts{
		Env:        harness.EnvForScale(0.1),
		Points:     3,
		Benchmarks: []*workload.Benchmark{jess},
		Jobs:       8,
		Progress:   feed.add,
	})
	defer s.Close()

	var first *harness.Result
	for i := 0; i < 8; i++ {
		mins, err := s.MinHeaps()
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		rs, err := s.exec.RunAll([]harness.RunSpec{s.at(s.appel(), jess, 2*mins["jess"])})
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if rs[0].Incomplete() {
			t.Fatalf("request %d got unusable result %+v", i, rs[0])
		}
		if i == 0 {
			first = rs[0]
		} else if !reflect.DeepEqual(rs[0], first) {
			t.Errorf("request %d observed a different Result than request 0", i)
		}
	}

	mins, runs := feed.executed()
	if mins != 1 {
		t.Errorf("min-heap search executed %d times, want 1:\n%s", mins, strings.Join(feed.lines, "\n"))
	}
	if runs != 1 {
		t.Errorf("measurement executed %d times, want 1:\n%s", runs, strings.Join(feed.lines, "\n"))
	}
}
