package experiments

import (
	"fmt"

	"beltway/internal/collectors"
	"beltway/internal/core"
	"beltway/internal/harness"
)

// Ablations measures the design choices DESIGN.md calls out, holding the
// workloads and heap size (1.5x the Appel minimum, the tight-heap regime
// the paper optimizes for) fixed and toggling one mechanism at a time:
//
//   - pointer tracking: frame-barrier remsets (the paper's choice) vs
//     the boundary barrier + boot scans vs card marking (§5 discusses
//     why the paper chose remsets);
//   - copy reserve: dynamic conservative (§3.3.4) vs the classical fixed
//     half heap;
//   - nursery source filter (§3.3.2) on vs off;
//   - time-to-die trigger (§3.3.3) off vs on;
//   - completeness mechanism: none (X.X) vs third belt (X.X.100) vs
//     Mature Object Space trains (the §5 future-work extension).
func (s *Suite) Ablations() ([]harness.Table, error) {
	mins, err := s.MinHeaps()
	if err != nil {
		return nil, err
	}

	base := func(h int) core.Config { return collectors.XX100(25, s.opts.Env.Options(h)) }
	dims := []struct {
		title    string
		variants []harness.Collector
	}{
		{
			"Ablation: pointer tracking (Beltway 25.25.100 base)",
			[]harness.Collector{
				{Name: "frame remsets", Make: base},
				{Name: "card marking", Make: func(h int) core.Config {
					return collectors.WithCardBarrier(collectors.XX100(25, s.opts.Env.Options(h)))
				}},
				{Name: "boundary+bootscan", Make: func(h int) core.Config {
					c := base(h)
					c.Name += "+boundary"
					c.Barrier = core.BoundaryBarrier
					return c
				}},
			},
		},
		{
			"Ablation: copy reserve (Beltway 25.25.100 base)",
			[]harness.Collector{
				{Name: "dynamic conservative", Make: base},
				{Name: "fixed half heap", Make: func(h int) core.Config {
					c := base(h)
					c.Name += "+halfres"
					c.FixedHalfReserve = true
					return c
				}},
			},
		},
		{
			"Ablation: nursery source filter (Beltway 25.25.100 base)",
			[]harness.Collector{
				{Name: "filter on", Make: base},
				{Name: "filter off", Make: func(h int) core.Config {
					c := base(h)
					c.Name += "-nofilter"
					c.NurseryFilter = false
					return c
				}},
			},
		},
		{
			"Ablation: time-to-die trigger (Beltway 25.25.100 base)",
			[]harness.Collector{
				{Name: "ttd off", Make: base},
				{Name: "ttd heap/16", Make: func(h int) core.Config {
					c := base(h)
					c.Name += "+ttd"
					c.TTDBytes = h / 16
					return c
				}},
			},
		},
		{
			"Ablation: completeness mechanism (X = 25)",
			[]harness.Collector{
				{Name: "none (25.25)", Make: func(h int) core.Config {
					return collectors.XX(25, s.opts.Env.Options(h))
				}},
				{Name: "third belt (25.25.100)", Make: base},
				{Name: "MOS trains (25.25.MOS)", Make: func(h int) core.Config {
					return collectors.XXMOS(25, s.opts.Env.Options(h))
				}},
			},
		},
	}

	// All ablation measurements are independent, so they are submitted as
	// one engine batch and the tables assembled afterwards in the fixed
	// dimension/variant/benchmark order.
	var specs []harness.RunSpec

	// Pretenuring is a workload-side toggle (allocation sites), so it is
	// measured outside the variant framework: same collector, same
	// benchmark, long-lived allocation sites routed to the top belt. The
	// environment differs from the suite's, so these runs carry a
	// distinguishing key tag.
	ptVariants := []string{"site-neutral", "pretenured"}
	for _, name := range ptVariants {
		env := s.opts.Env
		env.Pretenure = name == "pretenured"
		col := harness.Collector{Name: name, Make: base}
		for _, bench := range s.opts.Benchmarks {
			specs = append(specs, col.Spec("pretenure", harness.Bench(bench), s.tightHeap(mins[bench.Name]), env))
		}
	}
	for _, dim := range dims {
		specs = append(specs, s.atTightHeap(dim.variants, mins)...)
	}
	results, err := s.exec.RunAll(specs)
	if err != nil {
		return nil, err
	}
	next := 0
	take := func() *harness.Result { r := results[next]; next++; return r }

	pt := harness.Table{
		Title: "Ablation: allocation-site pretenuring (Beltway 25.25.100 base)",
		Headers: []string{"Variant", "Benchmark", "Total (s)", "GC (s)", "GC %",
			"GCs", "Copied MB", "Pretenured MB"},
	}
	for _, name := range ptVariants {
		for _, bench := range s.opts.Benchmarks {
			r := take()
			if r.Incomplete() {
				pt.AddRow(name, bench.Name, incompleteCell(r), "-", "-", "-", "-", "-")
				continue
			}
			pt.AddRow(name, bench.Name,
				harness.FmtSec(r.TotalTime),
				harness.FmtSec(r.GCTime),
				fmt.Sprintf("%.1f%%", 100*r.GCFraction()),
				fmt.Sprint(r.Collections),
				fmt.Sprintf("%.2f", float64(r.Counters.BytesCopied)/(1<<20)),
				fmt.Sprintf("%.2f", float64(r.Counters.PretenuredBytes)/(1<<20)))
		}
	}

	var out []harness.Table
	for _, dim := range dims {
		t := harness.Table{
			Title: dim.title,
			Headers: []string{"Variant", "Benchmark", "Total (s)", "GC (s)", "GC %",
				"GCs", "Copied MB", "Barrier slow", "Cards scanned"},
		}
		for _, v := range dim.variants {
			for _, bench := range s.opts.Benchmarks {
				r := take()
				if r.Incomplete() {
					t.AddRow(v.Name, bench.Name, incompleteCell(r), "-", "-", "-", "-", "-", "-")
					continue
				}
				t.AddRow(v.Name, bench.Name,
					harness.FmtSec(r.TotalTime),
					harness.FmtSec(r.GCTime),
					fmt.Sprintf("%.1f%%", 100*r.GCFraction()),
					fmt.Sprint(r.Collections),
					fmt.Sprintf("%.2f", float64(r.Counters.BytesCopied)/(1<<20)),
					fmt.Sprint(r.Counters.BarrierSlowPaths),
					fmt.Sprint(r.Counters.CardsScanned))
			}
		}
		out = append(out, t)
	}
	out = append(out, pt)
	return out, nil
}
