// Command experiments regenerates the tables and figures of "Beltway:
// Getting Around Garbage Collection Gridlock" (PLDI 2002).
//
// Usage:
//
//	experiments -exp fig9                # one experiment
//	experiments -exp all                 # everything, paper order
//	experiments -exp fig9 -points 9      # coarser sweep (faster)
//	experiments -exp table1 -scale 0.25  # smaller workloads
//	experiments -list                    # show available experiments
//
// Runs execute in parallel on a worker pool (-jobs, default GOMAXPROCS);
// every run is deterministic and independent, and results are reassembled
// in a fixed order, so the tables are byte-identical for any -jobs value.
// With -checkpoint FILE each completed run streams a JSONL record; a
// killed sweep rerun with -resume skips the runs the file already holds:
//
//	experiments -exp all -jobs 8 -checkpoint run.jsonl
//	experiments -exp all -jobs 8 -checkpoint run.jsonl -resume
//
// A diverging configuration can be bounded with -timeout (wall clock) or
// -budget (simulated seconds, deterministic); either records a failure
// for that run and the sweep continues.
//
// Output is a set of text tables, one data series per collector — the
// same rows/series the paper plots. Absolute "seconds" are nominal cost
// units; compare shapes, not magnitudes (see EXPERIMENTS.md).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"syscall"

	"beltway/internal/engine"
	"beltway/internal/experiments"
	"beltway/internal/harness"
	"beltway/internal/telemetry"
	"beltway/internal/workload"
)

func main() {
	var (
		exp      = flag.String("exp", "all", "experiment id (table1, fig1, fig5..fig11, all)")
		points   = flag.Int("points", 17, "heap sizes per sweep (paper used 33)")
		verbose  = flag.Bool("v", false, "print per-run progress")
		list     = flag.Bool("list", false, "list experiments and exit")
		csvOut   = flag.Bool("csv", false, "emit CSV instead of aligned tables")
		benchSel = flag.String("benchmarks", "", "comma-separated benchmark subset (default: all six)")

		jobs = flag.Int("jobs", runtime.GOMAXPROCS(0),
			"parallel runs (worker pool size); output is identical for any value")
		checkpoint = flag.String("checkpoint", "",
			"JSONL file streaming one record per completed run")
		resume = flag.Bool("resume", false,
			"load -checkpoint and skip runs it already holds (appends new records)")
		timeout = flag.Duration("timeout", 0,
			"per-run wall-clock budget (e.g. 30s; 0 = none); exceeded runs are recorded as failures")
		slo = flag.String("slo", "",
			"request-latency SLO for -exp server, e.g. p99=10e3,p99.9=1e6,max=20e6 (cost units; default: the built-in bar)")
	)
	envFlags := harness.BindEnvFlags(flag.CommandLine)
	files := telemetry.BindFileFlags(flag.CommandLine)
	flag.Parse()
	if *resume && *checkpoint == "" {
		fatalf("-resume requires -checkpoint")
	}

	if *list {
		for _, e := range experiments.Registry() {
			fmt.Printf("%-10s %s\n", e.ID, e.Description)
		}
		for _, e := range experiments.Extensions() {
			fmt.Printf("%-10s %s (extension; not in -exp all)\n", e.ID, e.Description)
		}
		return
	}

	env, err := envFlags()
	if err != nil {
		fatalf("%v", err)
	}

	// Observability output goes to files, never stdout, so the printed
	// tables stay byte-identical with it enabled or disabled. Only the
	// event renderers need the runs to carry their event streams.
	env.Telemetry = files.Events()
	var obs *observer
	if files.Any() {
		obs = &observer{results: map[string]*harness.Result{}}
	}

	opts := experiments.Opts{
		Env:        env,
		Points:     *points,
		Jobs:       *jobs,
		Checkpoint: *checkpoint,
		Resume:     *resume,
		Timeout:    *timeout,
		ServerSLO:  *slo,
	}
	if *checkpoint != "" {
		// Bind checkpoint records to this build and configuration, so a
		// -resume against records from a different binary or parameter set
		// re-executes them (loudly) instead of silently reusing them.
		binHash, err := engine.BinaryHash()
		if err != nil {
			fatalf("hashing own binary: %v", err)
		}
		envJSON, err := json.Marshal(env)
		if err != nil {
			fatalf("fingerprinting env: %v", err)
		}
		opts.Fingerprint = engine.Fingerprint("experiments", binHash, string(envJSON),
			fmt.Sprint(*points), *benchSel, *slo)
	}
	if obs != nil {
		opts.OnRecord = obs.onRecord
	}
	if *benchSel != "" {
		for _, name := range strings.Split(*benchSel, ",") {
			b := workload.Get(strings.TrimSpace(name))
			if b == nil {
				fatalf("unknown benchmark %q (have: %s)", name, strings.Join(workload.Names(), ", "))
			}
			opts.Benchmarks = append(opts.Benchmarks, b)
		}
	}
	if *verbose {
		opts.Progress = func(line string) { fmt.Fprintln(os.Stderr, line) }
	}
	suite := experiments.New(opts)
	defer suite.Close()
	if *checkpoint != "" {
		// A killed sweep must leave a durable checkpoint: flush it on
		// SIGINT/SIGTERM, then die with the conventional signal status.
		stop := suite.Engine().FlushOnSignal(os.Interrupt, syscall.SIGTERM)
		defer stop()
	}

	var ids []string
	if *exp == "all" {
		for _, e := range experiments.Registry() {
			ids = append(ids, e.ID)
		}
	} else {
		ids = strings.Split(*exp, ",")
	}

	for _, id := range ids {
		e := experiments.Get(strings.TrimSpace(id))
		if e == nil {
			fatalf("unknown experiment %q (use -list)", id)
		}
		tables, err := e.Run(suite)
		if err != nil {
			fatalf("%s: %v", e.ID, err)
		}
		for _, t := range tables {
			if *csvOut {
				fmt.Printf("# %s\n%s\n", t.Title, t.CSV())
			} else {
				fmt.Println(t.String())
			}
		}
	}

	if obs != nil {
		if err := obs.write(files); err != nil {
			fatalf("%v", err)
		}
	}
}

// observer keeps the result of every settled run, by engine key — one
// copy however many figures asked for it. Safe for concurrent use
// (records arrive from worker goroutines).
type observer struct {
	mu      sync.Mutex
	results map[string]*harness.Result
}

// onRecord decodes a settled engine record's payload. Records that hold
// no run (failures, minimum-heap searches) are skipped.
func (o *observer) onRecord(rec engine.Record) {
	if !rec.Outcome.Completed() || len(rec.Payload) == 0 {
		return
	}
	var p harness.RunPayload
	if err := json.Unmarshal(rec.Payload, &p); err != nil || p.Result == nil {
		return
	}
	o.mu.Lock()
	o.results[rec.Key.String()] = p.Result
	o.mu.Unlock()
}

// write renders the observed runs, ordered (and numbered) by key so the
// files are the same bytes whatever order the runs completed in.
func (o *observer) write(files *telemetry.FileFlags) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	keys := make([]string, 0, len(o.results))
	for k := range o.results {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	results := make([]*harness.Result, len(keys))
	var runs []telemetry.TraceRun
	for i, k := range keys {
		r := o.results[k]
		results[i] = r
		if r.Telemetry != nil {
			runs = append(runs, telemetry.TraceRun{
				Name:   fmt.Sprintf("%s / %s @ %sMB", r.Collector, r.Benchmark, harness.FmtMB(r.HeapBytes)),
				Pid:    len(runs) + 1,
				Events: r.Telemetry.Events,
			})
		}
	}
	return files.Write("experiments", runs, func(w io.Writer) error {
		return harness.WriteMetrics(w, results)
	})
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "experiments: "+format+"\n", args...)
	os.Exit(1)
}
