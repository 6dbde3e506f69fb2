// Command tracebench performs trace-driven collector comparison: record
// a bundled benchmark's mutator event stream once, then replay the
// identical stream against any set of collector configurations. Because
// the input is bit-identical across replays, every difference in the
// report is pure collector policy.
//
// Usage:
//
//	tracebench -bench jess -scale 0.25 -heapMB 2            # record + compare defaults
//	tracebench -bench db -gcs "appel,25.25.100,bof:25"      # choose collectors
//	tracebench -bench javac -record javac.trace             # record to file
//	tracebench -trace javac.trace -gcs "cards:25.25.100"    # replay from file
//	tracebench -bench jess -jobs 8                          # parallel replays
//
// The recording and every replay are runs of the one pipeline
// (harness.Run on the Record and Replay workloads), so the machine-level
// flags are the ones every front end shares (harness.BindEnvFlags), with
// tracebench's own defaults for -scale (0.25) and -seed (1). Replays run
// in parallel on a worker pool (-jobs); the report rows are printed in
// spec order, so output is identical for any -jobs value.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"text/tabwriter"

	"beltway/internal/collectors"
	"beltway/internal/core"
	"beltway/internal/engine"
	"beltway/internal/harness"
	"beltway/internal/stats"
	"beltway/internal/telemetry"
	"beltway/internal/trace"
	"beltway/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "tracebench: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("tracebench", flag.ExitOnError)
	var (
		benchName = fs.String("bench", "jess", "benchmark to record")
		heapMB    = fs.Float64("heapMB", 0, "heap size in MB (0 = 1.5x recorded min)")
		gcs       = fs.String("gcs", "ss,appel,ba2,fixed:25,25.25,25.25.100,25.25.mos,bof:25,bofm:25",
			"comma-separated collector specs to replay against")
		recordTo  = fs.String("record", "", "write the recorded trace to this file and exit")
		replayArg = fs.String("trace", "", "replay this trace file instead of recording")
		jobs      = fs.Int("jobs", runtime.GOMAXPROCS(0),
			"parallel replays (worker pool size); the report order is fixed")
	)
	envFlags := harness.BindEnvFlags(fs)
	for name, v := range map[string]string{"scale": "0.25", "seed": "1"} {
		f := fs.Lookup(name)
		if err := f.Value.Set(v); err != nil {
			return err
		}
		f.DefValue = v
	}
	files := telemetry.BindFileFlags(fs)
	_ = fs.Parse(args) // ExitOnError: Parse does not return an error
	env, err := envFlags()
	if err == nil {
		err = harness.ValidateTraceEnv(env)
	}
	if err != nil {
		return err
	}
	heapBytes := int(*heapMB * (1 << 20))

	tr, name := trace.NewTrace(), *benchName
	if *replayArg != "" {
		f, err := os.Open(*replayArg)
		if err != nil {
			return err
		}
		tr, err = trace.ReadFrom(f)
		f.Close()
		if err != nil {
			return err
		}
		name = *replayArg
		fmt.Fprintf(stdout, "loaded trace %s (%d bytes)\n", *replayArg, tr.Len())
		if heapBytes == 0 {
			return fmt.Errorf("-heapMB is required when replaying from a file")
		}
	} else {
		b := workload.Get(*benchName)
		if b == nil {
			return fmt.Errorf("unknown benchmark %q (have: %v)", *benchName, workload.Names())
		}
		if heapBytes == 0 {
			// The heap is sized from the minimum Table 1 reports — the
			// suite's seed, not the recording's — so traces of one
			// benchmark recorded under different seeds replay in one
			// heap size.
			sizing := env
			sizing.Seed = workload.DefaultParams().Seed
			min, err := harness.FindMinHeap(harness.AppelConfig(sizing), b, sizing)
			if err != nil {
				return fmt.Errorf("min heap search: %w", err)
			}
			heapBytes = min * 3 / 2
		}
		fmt.Fprintf(stdout, "recording %s at scale %v in a %.2f MB heap...\n",
			b.Name, env.Scale, float64(heapBytes)/(1<<20))
		res, err := harness.Run(collectors.XX100(25, env.Options(heapBytes)), harness.Record(b, tr), env)
		if err == nil && res.Incomplete() {
			err = fmt.Errorf("%s", incomplete(res))
		}
		if err != nil {
			return fmt.Errorf("recording failed: %w", err)
		}
		fmt.Fprintf(stdout, "trace: %d bytes, %.2f MB allocated\n\n",
			tr.Len(), float64(res.Counters.BytesAllocated)/(1<<20))
	}

	if *recordTo != "" {
		f, err := os.Create(*recordTo)
		if err != nil {
			return err
		}
		if _, err := tr.WriteTo(f); err != nil {
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %s\n", *recordTo)
		return nil
	}

	// Replays are independent — each a fresh run over the shared read-only
	// trace — so they go to the executor as one batch. A panicking or
	// failing replay degrades to a "failed" row; rows print in spec order
	// regardless of completion order.
	env.Telemetry = files.Events()
	var specs []harness.RunSpec
	for _, spec := range strings.Split(*gcs, ",") {
		cfg, err := collectors.Parse(strings.TrimSpace(spec), env.Options(heapBytes))
		if err != nil {
			return err
		}
		col := harness.Collector{Name: cfg.Name, Make: func(int) core.Config { return cfg }}
		specs = append(specs, col.Spec("tracebench", harness.Replay(name, tr), heapBytes, env))
	}
	results, err := harness.NewExecutor(engine.Config{Workers: *jobs}).RunAll(specs)
	if err != nil {
		return err
	}

	w := tabwriter.NewWriter(stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "collector\tGCs\tfull\tcopied MB\tremset ins\tcards\tGC %\tp50 ms\tp95 ms\tp99 ms\tmax ms")
	var runs []telemetry.TraceRun
	for i, r := range results {
		col := specs[i].Key.Collector
		if r.Incomplete() {
			fmt.Fprintf(w, "%s\tfailed: %s\t\t\t\t\t\t\t\t\t\n", col, incomplete(r))
			continue
		}
		const cyclesPerMs = stats.CyclesPerSecond / 1e3
		c, ps := r.Counters, stats.SummarizePauses(r.Pauses)
		fmt.Fprintf(w, "%s\t%d\t%d\t%.2f\t%d\t%d\t%.1f%%\t%.3f\t%.3f\t%.3f\t%.3f\n",
			col, c.Collections, c.FullCollections,
			float64(c.BytesCopied)/(1<<20), c.RemsetInserts, c.CardsScanned,
			100*r.GCFraction(), ps.Median/cyclesPerMs, ps.P95/cyclesPerMs, ps.P99/cyclesPerMs, ps.Max/cyclesPerMs)
		if r.Telemetry != nil {
			runs = append(runs, telemetry.TraceRun{Name: col, Pid: len(runs) + 1, Events: r.Telemetry.Events})
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return files.Write("tracebench", runs, func(w io.Writer) error {
		return harness.WriteMetrics(w, results)
	})
}

// incomplete says, in one line, why a run produced no measurement.
func incomplete(r *harness.Result) string {
	switch {
	case r.OOM:
		return "out of memory"
	case r.Aborted:
		return "cost budget exceeded"
	default:
		// A corruption report carries its flight-recorder tail on the
		// lines after the first.
		line, _, _ := strings.Cut(r.Failure, "\n")
		return line
	}
}
