// Command beltway runs one benchmark on one collector configuration and
// reports detailed statistics — the command-line interface the paper
// alludes to ("Beltway configurations, selected by command line
// options").
//
// Usage:
//
//	beltway -gc 25.25.100 -bench jess -heap 2.0
//	beltway -gc appel -bench pseudojbb -heap 1.5 -mmu
//	beltway -gc bof:25 -bench javac -heapMB 4
//
// The -gc flag accepts: ss | appel | appel3 | fixed:N | bofm:N | bof:N |
// X.X | X.X.100 (e.g. 25.25, 33.33.100). -heap gives the heap as a
// multiple of the benchmark's minimum (found by binary search); -heapMB
// sets it absolutely.
//
// -server replaces the benchmark with the request/response server
// workload (internal/server): per-request latencies on the cost-unit
// clock, per-phase percentile tables, and an optional SLO verdict:
//
//	beltway -gc 25.25 -server -heap 3
//	beltway -gc appel -server -heap 3 -slo p99=10e3,max=5e6
//
// In server mode -heap multiplies the store's estimated live size (no
// min-heap search) and -seed seeds the request stream.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"beltway/internal/collectors"
	"beltway/internal/harness"
	"beltway/internal/server"
	"beltway/internal/stats"
	"beltway/internal/telemetry"
	"beltway/internal/workload"
)

func main() {
	var (
		gcName  = flag.String("gc", "25.25.100", "collector configuration")
		bench   = flag.String("bench", "jess", "benchmark name")
		heapX   = flag.Float64("heap", 2.0, "heap size as a multiple of the min heap")
		heapMB  = flag.Float64("heapMB", 0, "absolute heap size in MB (overrides -heap)")
		showMMU = flag.Bool("mmu", false, "print the MMU curve")

		serverMode = flag.Bool("server", false,
			"run the request/response server workload instead of -bench")
		sloSpec = flag.String("slo", "",
			"request-latency SLO for -server, e.g. p99=10e3,p99.9=1e6,max=5e6 (cost units; empty = report only)")
	)
	envFlags := harness.BindEnvFlags(flag.CommandLine)
	files := telemetry.BindFileFlags(flag.CommandLine)
	flag.Parse()
	env, err := envFlags()
	if err != nil {
		fatalf("%v", err)
	}

	// Server mode: no min-heap search; -heap multiplies the store's
	// estimated live size, and -seed seeds the request stream.
	var work harness.Workload
	var heapBytes int
	if *serverMode {
		sc := server.Scaled(env.Scale)
		sc.Seed = env.Seed
		slo, perr := server.ParseSLO(*sloSpec)
		if perr != nil {
			fatalf("-slo: %v", perr)
		}
		work = harness.Server(sc, slo)
		heapBytes = int(float64(sc.EstLiveBytes()) * *heapX)
		heapBytes = (heapBytes/env.FrameBytes + 1) * env.FrameBytes
		if *heapMB <= 0 {
			fmt.Printf("est. live set: %s MB; running at %s MB (%.2fx)\n",
				harness.FmtMB(sc.EstLiveBytes()), harness.FmtMB(heapBytes), *heapX)
		}
	} else {
		b := workload.Get(*bench)
		if b == nil {
			fatalf("unknown benchmark %q (have: %v)", *bench, workload.Names())
		}
		work = harness.Bench(b)
		if *heapMB <= 0 {
			min, err := harness.FindMinHeap(harness.AppelConfig(env), b, env)
			if err != nil {
				fatalf("min-heap search: %v", err)
			}
			heapBytes = int(float64(min) * *heapX)
			heapBytes = (heapBytes / env.FrameBytes) * env.FrameBytes
			fmt.Printf("min heap (Appel): %s MB; running at %s MB (%.2fx)\n",
				harness.FmtMB(min), harness.FmtMB(heapBytes), *heapX)
		}
	}
	if *heapMB > 0 {
		heapBytes = int(*heapMB * (1 << 20))
	}

	config, err := collectors.Parse(*gcName, env.Options(heapBytes))
	if err != nil {
		fatalf("%v", err)
	}
	env.Telemetry = files.Events()
	res, err := harness.Run(config, work, env)
	if err != nil {
		fatalf("%v", err)
	}
	printResult(res)
	if res.Policy != nil {
		drift := res.Policy.Drift
		if drift == "" {
			drift = "(none)"
		}
		fmt.Printf("  adaptive policy     %10d decisions; knob drift: %s\n",
			res.Policy.Decisions, drift)
	}
	if res.Server != nil {
		printServerReport(res.Server)
	}
	table := harness.ResultsTable([]*harness.Result{res})
	fmt.Printf("\n%s", table.String())

	var runs []telemetry.TraceRun
	if res.Telemetry != nil {
		runs = []telemetry.TraceRun{{
			Name: fmt.Sprintf("%s / %s", res.Collector, res.Benchmark), Pid: 1, Events: res.Telemetry.Events}}
	}
	err = files.Write("beltway", runs, func(w io.Writer) error {
		return harness.WriteMetrics(w, []*harness.Result{res})
	})
	if err != nil {
		fatalf("%v", err)
	}
	if *showMMU && !res.OOM {
		curve := res.MMU(24)
		fmt.Printf("\nMMU curve (max pause %.3f ms, throughput %.3f):\n",
			curve.MaxPause/733e3, curve.Throughput)
		fmt.Printf("%12s  %s\n", "window(ms)", "min utilization")
		for _, p := range curve.Points {
			fmt.Printf("%12.3f  %.3f\n", p.Window/733e3, p.Utilization)
		}
	}
}

func printResult(r *harness.Result) {
	if r.OOM {
		fmt.Printf("%s on %s: OUT OF MEMORY at %s MB\n",
			r.Collector, r.Benchmark, harness.FmtMB(r.HeapBytes))
		return
	}
	c := r.Counters
	if r.Mutators > 1 {
		fmt.Printf("\n%s on %s, heap %s MB/mutator, %d mutators (times are simulated %d-core makespan)\n",
			r.Collector, r.Benchmark, harness.FmtMB(r.HeapBytes), r.Mutators, r.Mutators)
	} else {
		fmt.Printf("\n%s on %s, heap %s MB\n", r.Collector, r.Benchmark, harness.FmtMB(r.HeapBytes))
	}
	fmt.Printf("  total time          %10.3f s (nominal)\n", r.TotalTime/733e6)
	fmt.Printf("  gc time             %10.3f s (%.1f%%)\n", r.GCTime/733e6, 100*r.GCFraction())
	ps := stats.SummarizePauses(r.Pauses)
	fmt.Printf("  pauses              %10d (median %.3f ms, p90 %.3f, p95 %.3f, p99 %.3f, max %.3f)\n",
		ps.Count, ps.Median/733e3, ps.P90/733e3, ps.P95/733e3, ps.P99/733e3, ps.Max/733e3)
	fmt.Printf("  collections         %10d (%d full)\n", r.Collections, c.FullCollections)
	fmt.Printf("  allocated           %10.2f MB in %d objects\n",
		float64(c.BytesAllocated)/(1<<20), c.ObjectsAllocated)
	fmt.Printf("  copied              %10.2f MB in %d objects (mark/cons %.3f)\n",
		float64(c.BytesCopied)/(1<<20), c.ObjectsCopied,
		float64(c.BytesCopied)/float64(max64(c.BytesAllocated, 1)))
	fmt.Printf("  pointer stores      %10d (%d slow path, %d remset inserts)\n",
		c.PointerStores, c.BarrierSlowPaths, c.RemsetInserts)
	fmt.Printf("  remset entries @GC  %10d\n", c.RemsetEntriesGC)
	fmt.Printf("  roots scanned       %10d; boot scanned %.2f MB\n",
		c.RootsScanned, float64(c.BootBytesScanned)/(1<<20))
	fmt.Printf("  frames mapped       %10d (%d unmapped); paged alloc %.2f MB\n",
		c.FramesMapped, c.FramesUnmapped, float64(c.PageFaultBytes)/(1<<20))
}

// printServerReport renders the per-phase latency distributions and SLO
// verdicts of a server-mode run (latencies in nominal microseconds).
func printServerReport(rep *server.Report) {
	t := harness.Table{
		Title: "Server phases (request latency, nominal us)",
		Headers: []string{"phase", "requests", "reads", "writes",
			"p50(us)", "p95(us)", "p99(us)", "p99.9(us)", "max(us)", "paused%", "worst-infl"},
	}
	rows := append(append([]server.PhaseReport{}, rep.Phases...), rep.Overall)
	rows[len(rows)-1].Name = "overall"
	for _, p := range rows {
		t.AddRow(p.Name, fmt.Sprint(p.Requests), fmt.Sprint(p.Reads), fmt.Sprint(p.Writes),
			harness.FmtUs(p.Latency.P50), harness.FmtUs(p.Latency.P95),
			harness.FmtUs(p.Latency.P99), harness.FmtUs(p.Latency.P999),
			harness.FmtUs(p.Latency.Max),
			fmt.Sprintf("%.2f", 100*p.PausedFrac),
			fmt.Sprintf("%.1f", p.WorstInflation))
	}
	fmt.Printf("\n%s", t.String())
	if rep.Shards > 1 {
		fmt.Printf("\nmerged over %d serving lanes; store fingerprint %016x\n",
			rep.Shards, rep.StoreChecksum)
	} else {
		fmt.Printf("\nstore fingerprint %016x\n", rep.StoreChecksum)
	}
	if len(rep.Verdicts) > 0 {
		fmt.Println("\nSLO verdicts:")
		for _, v := range rep.Verdicts {
			state := "PASS"
			if !v.Pass {
				state = "FAIL"
			}
			fmt.Printf("  %-5s %-5s actual %12.0f cost units (%s us), bound %12.0f (%s us)\n",
				v.Target.Quantile, state, v.Actual, harness.FmtUs(v.Actual),
				v.Target.Cost, harness.FmtUs(v.Target.Cost))
		}
		if rep.Passed {
			fmt.Println("  SLO: PASS")
		} else {
			fmt.Println("  SLO: FAIL")
		}
	}
}

func max64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "beltway: "+format+"\n", args...)
	os.Exit(1)
}
