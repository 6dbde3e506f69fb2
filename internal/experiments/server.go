package experiments

import (
	"fmt"

	"beltway/internal/harness"
	"beltway/internal/server"
)

// serverHeapFactors are the heap sizes of the server sweep, as multiples
// of the store's estimated live size. The floor is 2x: copying
// collectors reserve to-space on top of the live set, so below ~2x even
// the baseline OOMs.
var serverHeapFactors = []float64{2, 3, 4, 6}

// serverScorecardFactor is the heap factor of the SLO-vs-preset
// scorecard table.
const serverScorecardFactor = 3.0

// serverCollectors is the preset panel of the server experiment: the
// paper's baseline (Appel), the best fixed nursery, the incomplete and
// complete Beltway configurations, and both mark-region variants.
func (s *Suite) serverCollectors() []harness.Collector {
	return []harness.Collector{
		s.appel(), s.fixed(25), s.xx(25), s.xx100(25), s.mr(25), s.immix(),
	}
}

// serverWorkload builds the suite's server workload: the request script
// scaled and seeded like the benchmarks, judged against
// server.DefaultSLO.
func (s *Suite) serverWorkload() (harness.Workload, server.Config) {
	sc := server.Scaled(s.opts.Env.Scale)
	sc.Seed = s.opts.Env.Seed
	return harness.Server(sc, server.DefaultSLO), sc
}

// FigureServer sweeps the request/response server workload
// (internal/server) across the preset panel and heap sizes, reporting
// per-request latency percentiles on the cost-unit clock and each
// configuration's SLO verdict. Collectors that win the throughput sweeps
// can lose here: a full-heap collection parked under a request inflates
// its latency by orders of magnitude, and the p99.9 column shows exactly
// which presets let that happen at which heap sizes.
//
// This experiment is an extension (the 2002 paper measures throughput
// and MMU, not request SLOs); it is reachable by id ("-exp server") but
// stays out of "-exp all".
func (s *Suite) FigureServer() ([]harness.Table, error) {
	work, sc := s.serverWorkload()
	cols := s.serverCollectors()
	est := sc.EstLiveBytes()
	frame := s.opts.Env.FrameBytes

	// One flat batch, collector-major, under its own key tag.
	var specs []harness.RunSpec
	for _, col := range cols {
		for _, f := range serverHeapFactors {
			hb := int(float64(est) * f)
			hb = (hb/frame + 1) * frame
			specs = append(specs, col.Spec("server", work, hb, s.opts.Env))
		}
	}
	flat, err := s.exec.RunAll(specs)
	if err != nil {
		return nil, err
	}
	results := make([][]*harness.Result, len(cols))
	for ci := range cols {
		results[ci] = flat[ci*len(serverHeapFactors) : (ci+1)*len(serverHeapFactors)]
	}

	sweep := harness.Table{
		Title: fmt.Sprintf("Server: request latency vs heap size (SLO %s)", server.DefaultSLO),
		Headers: []string{"Collector", "Heap (x live)", "Heap (MB)", "GC%",
			"p50(us)", "p99(us)", "p99.9(us)", "max(us)", "paused%", "worst-infl", "SLO"},
	}
	for ci, col := range cols {
		for fi, f := range serverHeapFactors {
			r := results[ci][fi]
			if r.Incomplete() || r.Server == nil {
				sweep.AddRow(col.Name, fmt.Sprintf("%.1f", f), harness.FmtMB(r.HeapBytes),
					incompleteCell(r), "-", "-", "-", "-", "-", "-", "-")
				continue
			}
			d := r.Server.Overall
			sweep.AddRow(col.Name, fmt.Sprintf("%.1f", f), harness.FmtMB(r.HeapBytes),
				fmt.Sprintf("%.1f", 100*r.GCFraction()),
				harness.FmtUs(d.Latency.P50), harness.FmtUs(d.Latency.P99),
				harness.FmtUs(d.Latency.P999), harness.FmtUs(d.Latency.Max),
				fmt.Sprintf("%.2f", 100*d.PausedFrac),
				fmt.Sprintf("%.1f", d.WorstInflation),
				sloCell(r.Server))
		}
	}

	card := harness.Table{
		Title: fmt.Sprintf("Server: SLO scorecard at %.1fx live heap (SLO %s)",
			serverScorecardFactor, server.DefaultSLO),
		Headers: []string{"Collector", "p99(us)", "p99.9(us)", "max(us)",
			"paused%", "GCs", "SLO"},
	}
	fi := indexOfFactor(serverHeapFactors, serverScorecardFactor)
	for ci, col := range cols {
		r := results[ci][fi]
		if r.Incomplete() || r.Server == nil {
			card.AddRow(col.Name, "-", "-", "-", "-", incompleteCell(r), "-")
			continue
		}
		d := r.Server.Overall
		card.AddRow(col.Name,
			harness.FmtUs(d.Latency.P99), harness.FmtUs(d.Latency.P999),
			harness.FmtUs(d.Latency.Max),
			fmt.Sprintf("%.2f", 100*d.PausedFrac),
			fmt.Sprint(r.Collections),
			sloCell(r.Server))
	}
	return []harness.Table{sweep, card}, nil
}

// sloCell renders a report's SLO outcome, naming the failed targets.
func sloCell(rep *server.Report) string {
	if len(rep.Verdicts) == 0 {
		return "-"
	}
	if rep.Passed {
		return "PASS"
	}
	cell := "FAIL"
	for _, v := range rep.Verdicts {
		if !v.Pass {
			cell += " " + v.Target.Quantile
		}
	}
	return cell
}

func indexOfFactor(fs []float64, f float64) int {
	for i, v := range fs {
		if v == f {
			return i
		}
	}
	return 0
}
