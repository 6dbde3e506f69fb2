package harness

import (
	"testing"

	"beltway/internal/gc"
	"beltway/internal/server"
	"beltway/internal/stats"
	"beltway/internal/telemetry"
)

// syntheticResult builds a fixed Result so table rendering is testable
// byte-for-byte without running anything.
func syntheticResult(withServer bool) *Result {
	r := &Result{
		Collector:   "Beltway 25.25",
		Benchmark:   "jess",
		HeapBytes:   4 << 20,
		TotalTime:   2 * stats.CyclesPerSecond,
		GCTime:      0.2 * stats.CyclesPerSecond,
		Collections: 7,
		Pauses: []stats.Pause{
			{Start: 0, End: 0.001 * stats.CyclesPerSecond},
			{Start: 1, End: 1 + 0.002*stats.CyclesPerSecond},
			{Start: 2, End: 2 + 0.004*stats.CyclesPerSecond},
		},
	}
	if withServer {
		r.Benchmark = "server"
		r.Server = &server.Report{
			Overall: server.PhaseReport{
				Requests:       1000,
				Latency:        server.Dist{Count: 1000, P50: 440, P99: 2200, P999: 733000, Max: 2.2e6},
				PausedRequests: 3,
				PausedFrac:     0.003,
				WorstInflation: 12.5,
			},
		}
	}
	return r
}

// TestResultsTableGolden pins the classic table rendering byte-for-byte:
// results without server reports must render exactly as they did before
// the SLO columns existed.
func TestResultsTableGolden(t *testing.T) {
	tbl := ResultsTable([]*Result{syntheticResult(false)})
	want := "" +
		"collector      benchmark  heap(MB)  total(s)  gc(s)   gc%  gcs  p50(ms)  p95(ms)  p99(ms)  max(ms)\n" +
		"--------------------------------------------------------------------------------------------------\n" +
		"Beltway 25.25       jess      4.00     2.000  0.200  10.0    7     2.00     4.00     4.00     4.00\n"
	if got := tbl.String(); got != want {
		t.Fatalf("classic table drifted:\ngot:\n%s\nwant:\n%s", got, want)
	}
	// The same run with its flight recorder attached: the pause columns
	// are the pause list's own percentiles either way.
	traced := syntheticResult(false)
	run := telemetry.NewRun(stats.NewClock(stats.DefaultCosts()))
	for _, p := range traced.Pauses {
		run.Hooks().GCEnd(gc.GCEndInfo{Duration: p.Duration()})
	}
	traced.Telemetry = run.Snapshot()
	tbl = ResultsTable([]*Result{traced})
	if got := tbl.String(); got != want {
		t.Fatalf("the table of a run with telemetry differs from the table of the run without:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestResultsTableServerGolden pins the server-augmented rendering: the
// two SLO columns appear, and mixed tables pad non-server rows.
func TestResultsTableServerGolden(t *testing.T) {
	tbl := ResultsTable([]*Result{syntheticResult(false), syntheticResult(true)})
	want := "" +
		"collector      benchmark  heap(MB)  total(s)  gc(s)   gc%  gcs  p50(ms)  p95(ms)  p99(ms)  max(ms)  req-p99.9(us)  paused%\n" +
		"--------------------------------------------------------------------------------------------------------------------------\n" +
		"Beltway 25.25       jess      4.00     2.000  0.200  10.0    7     2.00     4.00     4.00     4.00              -        -\n" +
		"Beltway 25.25     server      4.00     2.000  0.200  10.0    7     2.00     4.00     4.00     4.00         1000.0     0.30\n"
	if got := tbl.String(); got != want {
		t.Fatalf("server table drifted:\ngot:\n%s\nwant:\n%s", got, want)
	}
}
