package experiments

import (
	"fmt"

	"beltway/internal/collectors"
	"beltway/internal/core"
	"beltway/internal/harness"
	"beltway/internal/stats"
)

// FigureSubstrate sweeps the mark-region heap substrate against its
// copying equivalents: Beltway 25.25 with a mark-region mature belt
// (25.25-mr), the all-mark-region Immix limit, the plain copying
// Beltway 25.25, and the Appel baseline. Beyond the standard GC/total
// time sweeps it reports the substrate's economics at a tight heap —
// copy traffic avoided by marking survivors in place, lines swept back
// to free runs, sparse frames defragmented — plus pause percentiles and
// MMU, since cheaper mature collections are only interesting if they do
// not cost responsiveness.
//
// This experiment is an extension (the 2002 paper predates Immix); it is
// reachable by id ("-exp substrate") but intentionally not part of
// "-exp all", which regenerates exactly the paper's evaluation.
func (s *Suite) FigureSubstrate() ([]harness.Table, error) {
	mrCol := harness.Collector{Name: "Beltway 25.25-mr", Make: func(h int) core.Config {
		return collectors.WithMarkRegion(collectors.XX(25, s.opts.Env.Options(h)))
	}}
	immixCol := harness.Collector{Name: "Immix", Make: func(h int) core.Config {
		return collectors.Immix(s.opts.Env.Options(h))
	}}
	cols := []harness.Collector{mrCol, immixCol, s.xx(25), s.appel()}
	out, err := s.sweepTables("Substrate: GC time", "Substrate: total time", cols...)
	if err != nil {
		return nil, err
	}

	// The substrate's ledger at 1.5x min heap: what the mark-region belts
	// marked in place (copying avoided), what they swept, what they still
	// had to evacuate (defrag), and what that did to pauses.
	mins, err := s.MinHeaps()
	if err != nil {
		return nil, err
	}
	specs := s.atTightHeap(cols, mins)
	results, err := s.exec.RunAll(specs)
	if err != nil {
		return nil, err
	}
	t := harness.Table{
		Title: "Substrate: copy traffic and pauses at 1.5x min heap",
		Headers: []string{"Collector", "Benchmark", "GCs", "Copied MB", "Marked MB",
			"Lines freed", "Frames evac", "Pause p50", "Pause p95", "MMU@10ms"},
	}
	for i, sp := range specs {
		r := results[i]
		if r.Incomplete() {
			t.AddRow(sp.Key.Collector, sp.Key.Benchmark, incompleteCell(r), "-", "-", "-", "-", "-", "-", "-")
			continue
		}
		ps := stats.SummarizePauses(r.Pauses)
		const cyclesPerMs = stats.CyclesPerSecond / 1e3
		t.AddRow(sp.Key.Collector, sp.Key.Benchmark,
			fmt.Sprint(r.Collections),
			fmt.Sprintf("%.2f", float64(r.Counters.BytesCopied)/(1<<20)),
			fmt.Sprintf("%.2f", float64(r.Counters.MRBytesMarked)/(1<<20)),
			fmt.Sprint(r.Counters.MRLinesReclaimed),
			fmt.Sprint(r.Counters.MRFramesEvacuated),
			harness.FmtSec(ps.Median),
			harness.FmtSec(ps.P95),
			fmt.Sprintf("%.3f", r.MMU(64).At(10*cyclesPerMs)))
	}
	out = append(out, t)
	return out, nil
}
