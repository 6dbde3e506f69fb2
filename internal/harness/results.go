package harness

import (
	"fmt"

	"beltway/internal/stats"
)

// FmtMs formats cost units as nominal milliseconds.
func FmtMs(v float64) string {
	return fmt.Sprintf("%.2f", v/stats.CyclesPerSecond*1e3)
}

// FmtUs formats cost units as nominal microseconds — the natural scale
// of single-request latencies, which round to 0.00 in milliseconds.
func FmtUs(v float64) string {
	return fmt.Sprintf("%.1f", v/stats.CyclesPerSecond*1e6)
}

// ResultsTable renders per-run measurements with pause-percentile
// columns (p50/p95/p99/max, in nominal milliseconds; the exact
// percentiles of Result.Pauses, so a run renders the same with and
// without Env.Telemetry). When any result carries a server report, two
// SLO columns are appended (request p99.9 latency, fraction of requests
// overlapping a pause); when any carries an adaptive-policy summary, two
// policy columns are appended (decision count, net knob drift). Tables
// without server or policy results render exactly as before.
func ResultsTable(results []*Result) Table {
	withSLO, withPolicy := false, false
	for _, r := range results {
		if r == nil {
			continue
		}
		if r.Server != nil {
			withSLO = true
		}
		if r.Policy != nil {
			withPolicy = true
		}
	}
	headers := []string{
		"collector", "benchmark", "heap(MB)", "total(s)", "gc(s)", "gc%", "gcs",
		"p50(ms)", "p95(ms)", "p99(ms)", "max(ms)",
	}
	if withSLO {
		headers = append(headers, "req-p99.9(us)", "paused%")
	}
	if withPolicy {
		headers = append(headers, "decisions", "knob-drift")
	}
	t := Table{Headers: headers}
	for _, r := range results {
		if r == nil {
			continue
		}
		if r.Failure != "" {
			row := []string{r.Collector, r.Benchmark, FmtMB(r.HeapBytes),
				"-", "-", "-", "-", "-", "-", "-", "-"}
			if withSLO {
				row = append(row, "-", "-")
			}
			if withPolicy {
				row = append(row, "-", "-")
			}
			t.AddRow(row...)
			continue
		}
		p50, p95, p99, max := pauseQuantiles(r)
		row := []string{
			r.Collector, r.Benchmark, FmtMB(r.HeapBytes),
			FmtSec(r.TotalTime), FmtSec(r.GCTime),
			fmt.Sprintf("%.1f", 100*r.GCFraction()),
			fmt.Sprintf("%d", r.Collections),
			FmtMs(p50), FmtMs(p95), FmtMs(p99), FmtMs(max),
		}
		if withSLO {
			if r.Server != nil {
				row = append(row,
					FmtUs(r.Server.Overall.Latency.P999),
					fmt.Sprintf("%.2f", 100*r.Server.Overall.PausedFrac))
			} else {
				row = append(row, "-", "-")
			}
		}
		if withPolicy {
			if r.Policy != nil {
				drift := r.Policy.Drift
				if drift == "" {
					drift = "-"
				}
				row = append(row, fmt.Sprintf("%d", r.Policy.Decisions), drift)
			} else {
				row = append(row, "-", "-")
			}
		}
		if r.OOM {
			row[0] += " (OOM)"
		} else if r.Aborted {
			row[0] += " (aborted)"
		}
		t.AddRow(row...)
	}
	return t
}

// pauseQuantiles returns (p50, p95, p99, max) pause costs for a result:
// the exact percentiles of its pause list, the definition every summary
// line uses, whether or not the run also carried a telemetry histogram.
func pauseQuantiles(r *Result) (p50, p95, p99, max float64) {
	ps := stats.SummarizePauses(r.Pauses)
	return ps.Median, ps.P95, ps.P99, ps.Max
}
