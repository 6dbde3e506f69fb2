package experiments

import (
	"fmt"
	"math"

	"beltway/internal/collectors"
	"beltway/internal/core"
	"beltway/internal/harness"
	"beltway/internal/workload"
)

// Experiment couples an id (the paper's table/figure number) with the
// function that regenerates it.
type Experiment struct {
	ID          string
	Description string
	Run         func(*Suite) ([]harness.Table, error)
}

// Registry lists every experiment in paper order.
func Registry() []Experiment {
	return []Experiment{
		{"table1", "Benchmark characteristics: min heap, allocation, GC counts (Appel)", (*Suite).Table1},
		{"fig1", "GC time share and total time vs heap size, Appel, per benchmark", (*Suite).Figure1},
		{"fig5", "Appel vs Beltway 100.100 vs 100.100.100 (geomean GC and total time)", (*Suite).Figure5},
		{"fig6", "Fixed-size nursery sizes vs Appel (geomean GC and total time)", (*Suite).Figure6},
		{"fig7", "Beltway X.X.100 increment-size sensitivity (geomean GC and total time)", (*Suite).Figure7},
		{"fig8", "Beltway 25.25 vs 25.25.100 vs Appel (completeness cost)", (*Suite).Figure8},
		{"fig9", "Beltway 25.25.100 vs Appel vs Fixed-25 (geomean GC and total time)", (*Suite).Figure9},
		{"fig10", "Per-benchmark total time: Beltway 25.25.100 vs Appel vs Fixed-25", (*Suite).Figure10},
		{"fig11", "MMU curves for javac at two heap sizes", (*Suite).Figure11},
		{"ablations", "Design-choice ablations: barriers, reserve, filter, TTD, completeness", (*Suite).Ablations},
		{"mos", "Extension sweep: Beltway 25.25.MOS vs 25.25.100 vs 25.25 vs Appel", (*Suite).FigureMOS},
	}
}

// Extensions lists experiments that go beyond the paper's evaluation.
// They resolve through Get (e.g. "-exp substrate") but stay out of
// Registry, so "-exp all" regenerates exactly the paper's tables.
func Extensions() []Experiment {
	return []Experiment{
		{"substrate", "Mark-region substrate: 25.25-mr vs Immix vs copying 25.25 vs Appel", (*Suite).FigureSubstrate},
		{"server", "Server workload: request latency SLOs vs heap size across presets", (*Suite).FigureServer},
		{"adapt", "Adaptive policy controller: static vs adaptive on the synthetics and the server family", (*Suite).FigureAdapt},
	}
}

// Get returns the experiment with the given id, or nil. Extension
// experiments resolve here too.
func Get(id string) *Experiment {
	for _, e := range append(Registry(), Extensions()...) {
		if e.ID == id {
			e := e
			return &e
		}
	}
	return nil
}

// Table1 reproduces paper Table 1: per benchmark, the minimum heap in
// which the Appel-style collector completes, total allocation, and the
// number of collections Appel performs at the largest (3x) and smallest
// (1x) heap sizes.
func (s *Suite) Table1() ([]harness.Table, error) {
	mins, err := s.MinHeaps()
	if err != nil {
		return nil, err
	}
	t := harness.Table{
		Title: "Table 1: benchmark characteristics (Appel-style collector)",
		Headers: []string{"Benchmark", "Min heap (MB)", "Total alloc (MB)",
			"GCs @3x", "GCs @1x", "Paper min/alloc (MB)"},
	}
	appel := s.appel()
	var specs []harness.RunSpec
	for _, b := range s.opts.Benchmarks {
		min := mins[b.Name]
		specs = append(specs, s.at(appel, b, min), s.at(appel, b, 3*min))
	}
	results, err := s.exec.RunAll(specs)
	if err != nil {
		return nil, err
	}
	for i, b := range s.opts.Benchmarks {
		small, large := results[2*i], results[2*i+1]
		if small.Failure != "" || large.Failure != "" {
			return nil, fmt.Errorf("experiments: table1 %s: %s%s", b.Name, small.Failure, large.Failure)
		}
		t.AddRow(b.Name,
			harness.FmtMB(mins[b.Name]),
			harness.FmtMB(int(large.Counters.BytesAllocated)),
			fmt.Sprint(large.Collections),
			fmt.Sprint(small.Collections),
			fmt.Sprintf("%d/%d", b.PaperMinHeapMB, b.PaperAllocMB))
	}
	return []harness.Table{t}, nil
}

// relAndAbsTables renders the standard pair of figure tables: metric
// relative to best (geomean across benchmarks) and absolute geomean
// seconds, per heap factor per collector.
func relAndAbsTables(title string, points [][]harness.SweepPoint, m harness.Metric, cols []harness.Collector) []harness.Table {
	rel := harness.RelativeToBest(points, m)
	abs := harness.AbsoluteGeoMean(points, m)
	headers := []string{"Heap (x min)"}
	for _, c := range cols {
		headers = append(headers, c.Name)
	}
	tr := harness.Table{Title: title + " — relative to best (lower is better)", Headers: headers}
	ta := harness.Table{Title: title + " — geometric mean (nominal seconds)", Headers: headers}
	for pi := range points[0] {
		f := points[0][pi].HeapRel
		rrow := []string{fmt.Sprintf("%.2f", f)}
		arow := []string{fmt.Sprintf("%.2f", f)}
		for ci := range cols {
			rrow = append(rrow, harness.FmtRel(rel[ci][pi]))
			arow = append(arow, harness.FmtSec(abs[ci][pi]))
		}
		tr.AddRow(rrow...)
		ta.AddRow(arow...)
	}
	return []harness.Table{tr, ta}
}

// Figure1 reproduces Figure 1: using the Appel-style collector over all
// six benchmarks, (a) the percentage of time spent in GC, and (b) total
// time relative to each benchmark's best, as heap size varies. The best
// total time is not always at the largest heap — pseudojbb pages.
func (s *Suite) Figure1() ([]harness.Table, error) {
	points, err := s.sweep([]harness.Collector{s.appel()})
	if err != nil {
		return nil, err
	}
	headers := []string{"Heap (x min)"}
	for _, b := range s.opts.Benchmarks {
		headers = append(headers, b.Name)
	}
	ga := harness.Table{Title: "Figure 1(a): percentage of time spent in GC (Appel)", Headers: headers}
	gb := harness.Table{Title: "Figure 1(b): total time relative to best (Appel)", Headers: headers}
	for pi := range points[0] {
		p := points[0][pi]
		rowA := []string{fmt.Sprintf("%.2f", p.HeapRel)}
		rowB := []string{fmt.Sprintf("%.2f", p.HeapRel)}
		for _, b := range s.opts.Benchmarks {
			var r *harness.Result
			for _, cand := range p.Results {
				if cand.Benchmark == b.Name {
					r = cand
				}
			}
			if r == nil || r.Incomplete() {
				rowA = append(rowA, "-")
				rowB = append(rowB, "-")
				continue
			}
			rowA = append(rowA, fmt.Sprintf("%.1f%%", 100*r.GCFraction()))
			rowB = append(rowB, "")
		}
		ga.AddRow(rowA...)
		gb.AddRow(rowB...)
	}
	// Fill 1(b) with per-benchmark relative series.
	for _, b := range s.opts.Benchmarks {
		series := harness.BenchmarkSeries(points, b.Name, harness.TotalTime)
		col := indexOf(headers, b.Name)
		for pi := range gb.Rows {
			gb.Rows[pi][col] = harness.FmtRel(series[0][pi])
		}
	}
	return []harness.Table{ga, gb}, nil
}

func indexOf(xs []string, x string) int {
	for i, v := range xs {
		if v == x {
			return i
		}
	}
	return -1
}

// sweepTables is the body the geomean figures share: sweep the
// collectors, then render GC time and total time, each relative to best
// and as an absolute geometric mean.
func (s *Suite) sweepTables(gcTitle, totalTitle string, cols ...harness.Collector) ([]harness.Table, error) {
	points, err := s.sweep(cols)
	if err != nil {
		return nil, err
	}
	out := relAndAbsTables(gcTitle, points, harness.GCTime, cols)
	return append(out, relAndAbsTables(totalTitle, points, harness.TotalTime, cols)...), nil
}

// figure is sweepTables under the paper's numbering: Figures 5-9 differ
// in their number and their collectors.
func (s *Suite) figure(n int, cols ...harness.Collector) ([]harness.Table, error) {
	return s.sweepTables(fmt.Sprintf("Figure %d(a): GC time", n), fmt.Sprintf("Figure %d(b): total time", n), cols...)
}

// Figure5 compares Appel with its Beltway generalizations: Beltway
// 100.100 (the BA2/Appel configuration) and Beltway 100.100.100 (the
// three-generation generalization). The paper finds GC time virtually
// identical — Beltway X.X.100's wins do NOT come from merely adding a
// third generation.
func (s *Suite) Figure5() ([]harness.Table, error) {
	return s.figure(5, s.appel(), s.xx(100), s.xx100(100))
}

// Figure6 compares fixed-size nursery generational collectors (10%, 25%,
// 50%, 75% of usable memory) against the flexible-nursery Appel
// collector. Appel wins, and small fixed nurseries fail outright in
// tight heaps (missing points).
func (s *Suite) Figure6() ([]harness.Table, error) {
	return s.figure(6, s.fixed(10), s.fixed(25), s.fixed(50), s.fixed(75), s.appel())
}

// Figure7 explores Beltway X.X.100 increment-size sensitivity with
// X in {10, 25, 33, 50}: robust except the smallest increments.
func (s *Suite) Figure7() ([]harness.Table, error) {
	return s.figure(7, s.xx100(10), s.xx100(25), s.xx100(33), s.xx100(50))
}

// Figure8 asks whether sacrificing completeness pays: Beltway 25.25
// versus Beltway 25.25.100 versus Appel. The geometric means match; only
// javac (large cyclic garbage) punishes the incomplete collector.
func (s *Suite) Figure8() ([]harness.Table, error) {
	return s.figure(8, s.xx(25), s.xx100(25), s.appel())
}

// Figure9 is the headline comparison: Beltway 25.25.100 versus the
// Appel-style collector and the best fixed-size (25%) nursery collector,
// geomean GC time and total time.
func (s *Suite) Figure9() ([]harness.Table, error) {
	return s.figure(9, s.xx100(25), s.appel(), s.fixed(25))
}

// Figure10 shows per-benchmark total execution time for the Figure 9
// trio.
func (s *Suite) Figure10() ([]harness.Table, error) {
	cols := []harness.Collector{s.xx100(25), s.appel(), s.fixed(25)}
	points, err := s.sweep(cols)
	if err != nil {
		return nil, err
	}
	var out []harness.Table
	headers := []string{"Heap (x min)"}
	for _, c := range cols {
		headers = append(headers, c.Name)
	}
	for _, b := range s.opts.Benchmarks {
		t := harness.Table{
			Title:   fmt.Sprintf("Figure 10: %s total time relative to best", b.Name),
			Headers: headers,
		}
		rel := harness.BenchmarkSeries(points, b.Name, harness.TotalTime)
		for pi := range points[0] {
			row := []string{fmt.Sprintf("%.2f", points[0][pi].HeapRel)}
			for ci := range cols {
				row = append(row, harness.FmtRel(rel[ci][pi]))
			}
			t.AddRow(row...)
		}
		out = append(out, t)
	}
	return out, nil
}

// FigureMOS sweeps the §5 future-work configuration — a Mature Object
// Space top belt — against the paper's complete (25.25.100), incomplete
// (25.25) and baseline (Appel) collectors. The interesting questions:
// does MOS stay close to 25.25.100's throughput while avoiding its
// full-heap collections, and does it avoid 25.25's incompleteness
// failures in tight heaps?
func (s *Suite) FigureMOS() ([]harness.Table, error) {
	mosCol := harness.Collector{Name: "Beltway 25.25.MOS", Make: func(h int) core.Config {
		return collectors.XXMOS(25, s.opts.Env.Options(h))
	}}
	cols := []harness.Collector{mosCol, s.xx100(25), s.xx(25), s.appel()}
	out, err := s.sweepTables("MOS extension: GC time", "MOS extension: total time", cols...)
	if err != nil {
		return nil, err
	}

	// Full-collection counts: the point of MOS.
	t := harness.Table{
		Title:   "MOS extension: full-heap collections at 1.5x min heap",
		Headers: []string{"Collector", "Benchmark", "GCs", "Full GCs"},
	}
	mins, err := s.MinHeaps()
	if err != nil {
		return nil, err
	}
	specs := s.atTightHeap(cols, mins)
	results, err := s.exec.RunAll(specs)
	if err != nil {
		return nil, err
	}
	for i, sp := range specs {
		r := results[i]
		if r.Incomplete() {
			t.AddRow(sp.Key.Collector, sp.Key.Benchmark, incompleteCell(r), "-")
			continue
		}
		t.AddRow(sp.Key.Collector, sp.Key.Benchmark, fmt.Sprint(r.Collections),
			fmt.Sprint(r.Counters.FullCollections))
	}
	out = append(out, t)
	return out, nil
}

// incompleteCell renders why a run produced no measurement.
func incompleteCell(r *harness.Result) string {
	switch {
	case r.OOM:
		return "OOM"
	case r.Aborted:
		return "budget"
	default:
		return "failed"
	}
}

// Figure11 reproduces the MMU (minimum mutator utilization) plots for
// javac at two heap sizes, comparing Appel with Beltway 10.10,
// 10.10.100, 33.33 and 33.33.100. Smaller increments give better
// responsiveness (higher MMU at small windows).
func (s *Suite) Figure11() ([]harness.Table, error) {
	mins, err := s.MinHeaps()
	if err != nil {
		return nil, err
	}
	var bench *workload.Benchmark
	for _, b := range s.opts.Benchmarks {
		if b.Name == "javac" {
			bench = b
		}
	}
	if bench == nil {
		return nil, fmt.Errorf("experiments: figure 11 requires javac in the benchmark set")
	}
	cols := []harness.Collector{s.appel(), s.xx(10), s.xx100(10), s.xx(33), s.xx100(33)}
	factors := []float64{1.5, 3.0}
	heaps := make([]int, len(factors))
	var specs []harness.RunSpec
	for fi, factor := range factors {
		heap := int(float64(mins[bench.Name]) * factor)
		heap = (heap / s.opts.Env.FrameBytes) * s.opts.Env.FrameBytes
		heaps[fi] = heap
		for _, col := range cols {
			specs = append(specs, s.at(col, bench, heap))
		}
	}
	results, err := s.exec.RunAll(specs)
	if err != nil {
		return nil, err
	}
	var out []harness.Table
	for fi, factor := range factors {
		heap := heaps[fi]
		headers := []string{"Window (ms)"}
		curves := make([]map[float64]float64, len(cols))
		var windows []float64
		for ci, col := range cols {
			headers = append(headers, col.Name)
			r := results[fi*len(cols)+ci]
			curves[ci] = map[float64]float64{}
			if r.Incomplete() {
				continue
			}
			// Sample MMU at fixed log-spaced windows so the collectors
			// share an axis.
			if windows == nil {
				for i := 0; i < 16; i++ {
					w := r.TotalTime / 3 * math.Pow(1e-4, float64(15-i)/15.0)
					windows = append(windows, w)
				}
			}
			curve := r.MMU(64)
			for _, w := range windows {
				curves[ci][w] = curve.At(w)
			}
		}
		t := harness.Table{
			Title: fmt.Sprintf("Figure 11: MMU for javac, heap %.1fx min (%s MB)",
				factor, harness.FmtMB(heap)),
			Headers: headers,
		}
		for _, w := range windows {
			row := []string{fmt.Sprintf("%.3f", w/733e3)} // cost units -> ms
			for ci := range cols {
				if u, ok := curves[ci][w]; ok {
					row = append(row, fmt.Sprintf("%.3f", u))
				} else {
					row = append(row, "-")
				}
			}
			t.AddRow(row...)
		}
		out = append(out, t)
	}
	return out, nil
}
