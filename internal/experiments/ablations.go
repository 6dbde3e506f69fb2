package experiments

import (
	"fmt"

	"beltway/internal/collectors"
	"beltway/internal/core"
	"beltway/internal/harness"
	"beltway/internal/workload"
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

	type variant struct {
		name string
		make func(heapBytes int) core.Config
	}
	base := func(h int) core.Config { return collectors.XX100(25, s.options(h)) }
	dims := []struct {
		title    string
		variants []variant
	}{
		{
			"Ablation: pointer tracking (Beltway 25.25.100 base)",
			[]variant{
				{"frame remsets", base},
				{"card marking", func(h int) core.Config {
					return collectors.WithCardBarrier(collectors.XX100(25, s.options(h)))
				}},
				{"boundary+bootscan", func(h int) core.Config {
					c := base(h)
					c.Name += "+boundary"
					c.Barrier = core.BoundaryBarrier
					return c
				}},
			},
		},
		{
			"Ablation: copy reserve (Beltway 25.25.100 base)",
			[]variant{
				{"dynamic conservative", base},
				{"fixed half heap", func(h int) core.Config {
					c := base(h)
					c.Name += "+halfres"
					c.FixedHalfReserve = true
					return c
				}},
			},
		},
		{
			"Ablation: nursery source filter (Beltway 25.25.100 base)",
			[]variant{
				{"filter on", base},
				{"filter off", func(h int) core.Config {
					c := base(h)
					c.Name += "-nofilter"
					c.NurseryFilter = false
					return c
				}},
			},
		},
		{
			"Ablation: time-to-die trigger (Beltway 25.25.100 base)",
			[]variant{
				{"ttd off", base},
				{"ttd heap/16", func(h int) core.Config {
					c := base(h)
					c.Name += "+ttd"
					c.TTDBytes = h / 16
					return c
				}},
			},
		},
		{
			"Ablation: completeness mechanism (X = 25)",
			[]variant{
				{"none (25.25)", func(h int) core.Config {
					return collectors.XX(25, s.options(h))
				}},
				{"third belt (25.25.100)", base},
				{"MOS trains (25.25.MOS)", func(h int) core.Config {
					return collectors.XXMOS(25, s.options(h))
				}},
			},
		},
	}

	heapFor := func(bench *workload.Benchmark) int {
		heapBytes := mins[bench.Name] * 3 / 2
		return (heapBytes / s.opts.Env.FrameBytes) * s.opts.Env.FrameBytes
	}

	// All ablation measurements are independent, so they are submitted as
	// one engine batch and the tables assembled afterwards in the fixed
	// dimension/variant/benchmark order.
	var specs []runSpec

	// Pretenuring is a workload-side toggle (allocation sites), so it is
	// measured outside the variant framework: same collector, same
	// benchmark, long-lived allocation sites routed to the top belt. The
	// environment differs from the suite's, so these runs bypass the
	// result cache and carry a distinguishing checkpoint tag.
	ptVariants := []string{"site-neutral", "pretenured"}
	for _, name := range ptVariants {
		env := s.opts.Env
		env.Pretenure = name == "pretenured"
		for _, bench := range s.opts.Benchmarks {
			specs = append(specs, runSpec{
				tag:       "pretenure",
				col:       harness.Collector{Name: name, Make: base},
				work:      harness.Bench(bench),
				heapBytes: heapFor(bench),
				env:       &env,
			})
		}
	}
	for _, dim := range dims {
		for _, v := range dim.variants {
			for _, bench := range s.opts.Benchmarks {
				specs = append(specs, runSpec{
					col:       harness.Collector{Name: v.name, Make: v.make},
					work:      harness.Bench(bench),
					heapBytes: heapFor(bench),
				})
			}
		}
	}
	results, err := s.runMany(specs)
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
					t.AddRow(v.name, bench.Name, incompleteCell(r), "-", "-", "-", "-", "-", "-")
					continue
				}
				t.AddRow(v.name, bench.Name,
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
