// Command bench runs the simulator's benchmark suites (heap, core, vm,
// markregion, remset, trace, telemetry, workload, server, stats, shard)
// through testing.Benchmark and writes the
// results as machine-readable JSON, so successive runs can be diffed to
// catch performance regressions.
//
// Usage:
//
//	go run ./cmd/bench                 # full run, writes BENCH_<date>.json
//	go run ./cmd/bench -quick          # 1 iteration/benchmark (CI smoke)
//	go run ./cmd/bench -suite heap,core -benchtime 100ms -o out.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"beltway/internal/bench"
	"beltway/internal/harness"
)

// Result is one benchmark measurement in the JSON report.
type Result struct {
	Suite       string  `json:"suite"`
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	MBPerSec    float64 `json:"mb_per_s,omitempty"`
	// Extra carries custom b.ReportMetric units (e.g. the collection
	// benchmarks' copied-bytes/op, which records GC copy traffic so the
	// mark-region substrate's copy savings are diffable across runs).
	Extra map[string]float64 `json:"extra,omitempty"`
}

// Report is the top-level BENCH_<date>.json document.
type Report struct {
	Date       string   `json:"date"`
	GoVersion  string   `json:"go"`
	GOOS       string   `json:"goos"`
	GOARCH     string   `json:"goarch"`
	Benchtime  string   `json:"benchtime"`
	Benchmarks []Result `json:"benchmarks"`
}

func main() {
	quick := flag.Bool("quick", false, "run each benchmark for a single iteration (CI smoke)")
	suites := flag.String("suite", "all", "comma-separated suites to run ("+strings.Join(bench.Suites(), ",")+") or 'all'")
	benchtime := flag.String("benchtime", "1s", "per-benchmark run time or iteration count (e.g. 100ms, 10x)")
	out := flag.String("o", "", "output path (default BENCH_<date>.json in the current directory)")
	mutators := flag.Int("mutators", 0,
		"cap the shard suite's scaling curve at this mutator width (0 = full default curve)")
	adapt := flag.String("adapt", "",
		"run the single-mutator server benchmarks with the adaptive policy controller on this objective (slo | mmu | footprint | throughput)")
	compare := flag.Bool("compare", false,
		"compare two reports instead of running: bench -compare OLD.json NEW.json")
	threshold := flag.Float64("threshold", 5,
		"with -compare, regression tolerance in percent; worse-than-threshold deltas exit non-zero")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare needs exactly two report paths, have %d", flag.NArg()))
		}
		regressions, err := runCompare(os.Stdout, flag.Arg(0), flag.Arg(1), *threshold)
		if err != nil {
			fatal(err)
		}
		if regressions > 0 {
			fmt.Fprintf(os.Stderr, "bench: %d regression(s) beyond %.1f%%\n", regressions, *threshold)
			os.Exit(1)
		}
		return
	}
	if *mutators < 0 {
		fatal(fmt.Errorf("-mutators must be at least 1 (got %d)", *mutators))
	}
	if *mutators > 0 {
		var counts []int
		for _, n := range bench.ShardCounts {
			if n <= *mutators {
				counts = append(counts, n)
			}
		}
		bench.ShardCounts = counts
	}
	// -adapt applies only to the flat single-mutator server benchmarks
	// (-mutators here caps the shard suite's curve, a different axis), so
	// validate it as a single-mutator environment.
	if err := harness.ValidateEnv(harness.Env{Policy: *adapt, Mutators: 1}); err != nil {
		fatal(err)
	}
	bench.ServerPolicy = *adapt

	// testing.Benchmark reads the test.* flags; register them and force
	// allocation reporting so B/op and allocs/op are always recorded.
	testing.Init()
	bt := *benchtime
	if *quick {
		bt = "1x"
	}
	if err := flag.Set("test.benchtime", bt); err != nil {
		fatal(err)
	}
	if err := flag.Set("test.benchmem", "true"); err != nil {
		fatal(err)
	}

	want := map[string]bool{}
	if *suites != "all" {
		for _, s := range strings.Split(*suites, ",") {
			want[strings.TrimSpace(s)] = true
		}
		for s := range want {
			if !validSuite(s) {
				fatal(fmt.Errorf("unknown suite %q (have %s)", s, strings.Join(bench.Suites(), ",")))
			}
		}
	}

	rep := Report{
		Date:      time.Now().Format("2006-01-02"),
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		Benchtime: bt,
	}
	for _, e := range bench.All() {
		if len(want) > 0 && !want[e.Suite] {
			continue
		}
		fmt.Printf("%-10s %-22s ", e.Suite, e.Name)
		r := testing.Benchmark(e.Fn)
		res := Result{
			Suite:       e.Suite,
			Name:        e.Name,
			Iterations:  r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			BytesPerOp:  r.AllocedBytesPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
		}
		if r.Bytes > 0 && r.T > 0 {
			res.MBPerSec = (float64(r.Bytes) * float64(r.N) / 1e6) / r.T.Seconds()
		}
		if len(r.Extra) > 0 {
			res.Extra = r.Extra
		}
		fmt.Printf("%12.1f ns/op %10d B/op %8d allocs/op",
			res.NsPerOp, res.BytesPerOp, res.AllocsPerOp)
		units := make([]string, 0, len(res.Extra))
		for unit := range res.Extra {
			units = append(units, unit)
		}
		sort.Strings(units)
		for _, unit := range units {
			fmt.Printf(" %12.4g %s", res.Extra[unit], unit)
		}
		fmt.Println()
		rep.Benchmarks = append(rep.Benchmarks, res)
	}

	path := *out
	if path == "" {
		path = "BENCH_" + rep.Date + ".json"
	}
	data, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		fatal(err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %s (%d benchmarks)\n", path, len(rep.Benchmarks))
}

func validSuite(s string) bool {
	for _, v := range bench.Suites() {
		if s == v {
			return true
		}
	}
	return false
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}
