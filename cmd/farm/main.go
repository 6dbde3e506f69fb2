// Command farm runs experiment grids over a pool of worker OS processes
// and records every completed run in an append-only, hash-chained ledger
// that can be audited and replayed later.
//
// Subcommands:
//
//	farm run    -out DIR [-collectors ... -benchmarks ... -factors ...]
//	farm verify -out DIR [-replay N]
//	farm report -out DIR
//	farm worker               (internal: spawned by `farm run`)
//
// A worker crash — a panic, a fatal runtime error, an OOM kill — fails
// only its own job, which is requeued onto a respawned worker; a killed
// orchestrator rerun with -resume picks up from the checkpoint and ledger
// with no duplicated or lost records. A job ends on its own, as a run
// does: there is no per-job deadline.
//
//	farm run -out results -collectors appel,25.25.100 -benchmarks jess,db \
//	         -factors 1.5,2,3 -scale 0.25 -workers 4
//	farm run -out results ... -resume       # after a crash or kill
//	farm verify -out results -replay 3      # chain + digests + re-execution
//	farm report -out results                # tables from verified records only
//
// verify re-checks the ledger's hash chain, re-hashes every run artifact
// against its ledger digest, and with -replay N re-executes N sampled
// runs, requiring byte-identical results.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"

	"beltway/internal/farm"
	"beltway/internal/harness"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	cmd, args := os.Args[1], os.Args[2:]
	switch cmd {
	case "run":
		runMain(args)
	case "worker":
		workerMain(args)
	case "verify":
		verifyMain(args)
	case "report":
		reportMain(args)
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: farm run|verify|report|worker [flags] (see each subcommand's -h)")
	os.Exit(2)
}

func runMain(args []string) {
	fs := flag.NewFlagSet("farm run", flag.ExitOnError)
	var (
		out        = fs.String("out", "", "output directory for ledger, checkpoint and run artifacts (required)")
		colSpecs   = fs.String("collectors", "appel,25.25.100", "comma-separated collector specs (collectors.Parse syntax)")
		benchNames = fs.String("benchmarks", "jess", "comma-separated benchmark names")
		factors    = fs.String("factors", "2,3", "comma-separated heap factors (multiples of each benchmark's Appel min heap)")
		workers    = fs.Int("workers", 2, "worker processes")
		resume     = fs.Bool("resume", false, "resume from -out's checkpoint and ledger")
		crashFirst = fs.Int("crash-worker", 0, "make the first worker SIGKILL itself on its Nth job (fault-injection demo; 0 = off)")
		metricsOut = fs.String("metrics-out", "", "write farm counters in Prometheus text exposition format")
		verbose    = fs.Bool("v", false, "print per-event progress")
	)
	envFlags := harness.BindEnvFlags(fs)
	fs.Parse(args)
	if *out == "" {
		fatalf("run: -out is required")
	}
	env, err := envFlags()
	if err != nil {
		fatalf("run: %v", err)
	}
	grid := farm.Grid{
		Collectors:  splitList(*colSpecs),
		Benchmarks:  splitList(*benchNames),
		HeapFactors: nil,
		Env:         env,
	}
	for _, f := range splitList(*factors) {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			fatalf("run: -factors: %v", err)
		}
		grid.HeapFactors = append(grid.HeapFactors, v)
	}

	exe, err := os.Executable()
	if err != nil {
		fatalf("run: %v", err)
	}
	workerCmd := func(spawn int) *exec.Cmd {
		wargs := []string{"worker"}
		if *crashFirst > 0 && spawn == 0 {
			wargs = append(wargs, "-die-after", strconv.Itoa(*crashFirst))
		}
		return exec.Command(exe, wargs...)
	}

	cfg := farm.Config{
		Grid:          grid,
		OutDir:        *out,
		Workers:       *workers,
		Resume:        *resume,
		WorkerCommand: workerCmd,
	}
	if *verbose {
		cfg.Progress = func(line string) { fmt.Fprintln(os.Stderr, line) }
	}
	sum, err := farm.Run(cfg)
	if err != nil {
		fatalf("run: %v", err)
	}
	if *metricsOut != "" {
		f, ferr := os.Create(*metricsOut)
		if ferr != nil {
			fatalf("run: -metrics-out: %v", ferr)
		}
		err := harness.WriteCounters(f, "farm", *sum)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fatalf("run: -metrics-out: %v", err)
		}
	}
	fmt.Printf("farm: %d job(s): %d completed, %d failed, %d resumed; %d worker spawn(s), %d crash(es), %d job(s) requeued; ledger holds %d entr%s\n",
		sum.Jobs, sum.Completed, sum.Failed, sum.Resumed,
		sum.WorkerSpawns, sum.WorkerCrashes, sum.JobsRetried,
		sum.LedgerEntries, pluralIES(sum.LedgerEntries))
	if sum.Invalidated > 0 {
		fmt.Printf("farm: %d stale checkpoint record(s) were invalidated and re-executed\n", sum.Invalidated)
	}
	if sum.Failed > 0 {
		os.Exit(1)
	}
}

func workerMain(args []string) {
	fs := flag.NewFlagSet("farm worker", flag.ExitOnError)
	dieAfter := fs.Int("die-after", 0, "SIGKILL self on the Nth request (fault-injection demo; 0 = off)")
	fs.Parse(args)
	if err := farm.ServeWorker(os.Stdin, os.Stdout, farm.WorkerOpts{DieAfter: *dieAfter}); err != nil {
		fatalf("worker: %v", err)
	}
}

func verifyMain(args []string) {
	fs := flag.NewFlagSet("farm verify", flag.ExitOnError)
	out := fs.String("out", "", "farm output directory (required)")
	replay := fs.Int("replay", 0, "re-execute up to N sampled runs and require byte-identical results")
	verbose := fs.Bool("v", false, "print per-entry progress")
	fs.Parse(args)
	if *out == "" {
		fatalf("verify: -out is required")
	}
	var progress func(string)
	if *verbose {
		progress = func(line string) { fmt.Fprintln(os.Stderr, line) }
	}
	res, err := farm.Verify(*out, *replay, progress)
	if err != nil {
		fatalf("verify: FAIL: %v", err)
	}
	fmt.Printf("farm verify: PASS: %d entr%s chained and digest-checked, %d replayed byte-identically\n",
		res.Entries, pluralIES(res.Entries), res.Replayed)
	if res.BinaryMismatches > 0 {
		fmt.Printf("farm verify: note: %d entr%s from a different binary (chain still verified; replay skipped them)\n",
			res.BinaryMismatches, pluralIES(res.BinaryMismatches))
	}
}

func reportMain(args []string) {
	fs := flag.NewFlagSet("farm report", flag.ExitOnError)
	out := fs.String("out", "", "farm output directory (required)")
	output := fs.String("o", "", "write the report here instead of stdout")
	fs.Parse(args)
	if *out == "" {
		fatalf("report: -out is required")
	}
	rep, err := farm.Report(*out)
	if err != nil {
		fatalf("report: %v", err)
	}
	if *output == "" {
		fmt.Print(rep)
		return
	}
	if err := os.WriteFile(*output, []byte(rep), 0o644); err != nil {
		fatalf("report: %v", err)
	}
}

func splitList(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func pluralIES(n int) string {
	if n == 1 {
		return "y"
	}
	return "ies"
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "farm: "+format+"\n", args...)
	os.Exit(1)
}
