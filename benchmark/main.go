// Command benchmark is the repository's measuring stick: four workloads,
// end-to-end metrics on two axes kept apart (an exact simulated axis and a
// calibrated host axis), and a per-layer breakdown from a separate traced
// run. See README.md in this directory.
//
//	go run ./benchmark -workload <name|all> [-seed N] [-seconds S] [-trace 1] [-o out.json]
//	go run ./benchmark -selfcheck [-o out.json]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"text/tabwriter"
)

const (
	tmpPrefix  = ".bench_tmp-" // scratch directories under the working directory; in .gitignore
	runSeconds = 18            // BENCHMARK.json's run_seconds
)

func main() {
	// farm.Run and the process-pool probe re-exec this binary.
	if len(os.Args) == 2 {
		switch os.Args[1] {
		case "worker":
			exitOn(serveWorker())
			return
		case "echo":
			exitOn(serveEcho())
			return
		}
	}
	var o options
	flag.StringVar(&o.workload, "workload", "all", "workload name, or all")
	flag.Int64Var(&o.seed, "seed", defaultSeed, "workload seed")
	flag.Float64Var(&o.seconds, "seconds", runSeconds, "time budget of the timed rounds")
	trace := flag.Int("trace", 0, "1 = the traced run (per-layer metrics) instead of the end-to-end run")
	flag.StringVar(&o.out, "o", "", "also write the report as JSON to this file")
	flag.BoolVar(&o.selfcheck, "selfcheck", false, "run every workload twice and hold the two sets to the bounds")
	flag.BoolVar(&o.leg, "leg", false, "measure in this process: one leg of a run (what a run starts three times)")
	flag.Parse()
	if flag.NArg() > 0 || (*trace != 0 && *trace != 1) {
		fatalf("usage: benchmark -workload <%s|all> [-seed N] [-seconds S] [-trace 0|1] [-o file] | -selfcheck",
			strings.Join(workloadNames(), "|"))
	}
	o.traced = *trace == 1
	var err error
	if o.tmp, err = os.MkdirTemp(".", tmpPrefix); err != nil {
		fatalf("%v", err)
	}
	code := run(o)
	os.RemoveAll(o.tmp)
	os.Exit(code)
}

// options are the command line, plus the run's scratch directory.
type options struct {
	workload               string
	seed                   int64
	seconds                float64
	traced, selfcheck, leg bool
	out, tmp               string
}

func run(o options) int {
	switch {
	case o.selfcheck:
		return selfCheck(o)
	case o.workload == "all":
		set, ok := runAll(o, os.Stdout)
		writeJSON(o.out, set)
		if !ok {
			return 1
		}
		return 0
	}
	def := findWorkload(o.workload)
	if def == nil {
		fatalf("unknown workload %q (have: %s, all)", o.workload, strings.Join(workloadNames(), ", "))
	}
	var rep *report
	var err error
	switch {
	case !o.leg:
		rep, err = runWorkload(def, o)
	case o.traced:
		rep, err = runTraced(def, o.seed, o.seconds, o.tmp)
	default:
		rep, err = runLeg(def, o.seed, o.seconds, o.tmp)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 2
	}
	printReport(os.Stdout, rep)
	writeJSON(o.out, rep)
	if !o.leg {
		printContractLine(rep)
	}
	if rep.Failed > 0 {
		return 1
	}
	return 0
}

// runWorkload makes one run of one workload. The process that was asked
// for the run measures nothing itself: it starts the legs one after
// another, each in a fresh process, so that set-up is timed as a user pays
// it (nothing cached from an earlier leg), peak RSS and Go heap state
// belong to one leg, and a result that differs between processes is
// caught. The end-to-end run is three legs pooled; the traced run is one.
func runWorkload(def *workloadDef, o options) (*report, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	n := legs
	if o.traced {
		n = 1
	}
	file := filepath.Join(o.tmp, "leg.json")
	var reps []*report
	for i := 0; i < n; i++ {
		args := []string{"-leg", "-workload", def.name, "-seed", strconv.FormatInt(o.seed, 10),
			"-seconds", strconv.FormatFloat(o.seconds/float64(n), 'g', -1, 64), "-o", file}
		if o.traced {
			args = append(args, "-trace", "1")
		}
		cmd := exec.Command(exe, args...)
		cmd.Stderr = os.Stderr
		runErr := cmd.Run() // exit code 1: checks failed, and the report says which
		b, err := os.ReadFile(file)
		if err != nil {
			return nil, fmt.Errorf("%s: leg %d: %v", def.name, i+1, runErr)
		}
		if err := os.Remove(file); err != nil { // the next leg must write its own
			return nil, err
		}
		rep := &report{}
		if err := json.Unmarshal(b, rep); err != nil {
			return nil, fmt.Errorf("%s: leg %d: %w", def.name, i+1, err)
		}
		reps = append(reps, rep)
	}
	return merge(reps), nil
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

func exitOn(err error) {
	if err != nil {
		fatalf("%v", err)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(2)
}

func writeJSON(path string, v any) {
	if path == "" {
		return
	}
	b, err := json.MarshalIndent(v, "", " ")
	if err == nil {
		err = os.WriteFile(path, append(b, '\n'), 0o644)
	}
	exitOn(err)
}

// runAll runs every workload and prints each one's table to w.
func runAll(o options, w io.Writer) ([]*report, bool) {
	var set []*report
	ok := true
	for i := range workloads {
		rep, err := runWorkload(&workloads[i], o)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			ok = false
			continue
		}
		printReport(w, rep)
		fmt.Fprintln(w)
		ok = ok && rep.Failed == 0
		rep.Spans, rep.Calls = nil, nil // a single workload's -o carries those; the set stays small
		set = append(set, rep)
	}
	return set, ok
}

func printReport(out io.Writer, r *report) {
	fmt.Fprintf(out, "workload %s  seed %d  traced %v  rounds %d x %d jobs  op = one %s\n",
		r.Workload, r.Seed, r.Traced, r.Rounds, r.JobsARound, r.Op)
	fmt.Fprintf(out, "host: %s\n", r.Host)
	w := tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
	fmt.Fprintln(w, "metric\tunit\tn\tmedian\tq1\tq3\t")
	for _, list := range [][]metricValue{r.EndToEnd, r.PerLayer, r.Info} {
		for _, v := range list {
			if v.N > 0 {
				fmt.Fprintf(w, "%s\t%s\t%d\t%.6g\t%.6g\t%.6g\t\n", v.Name, v.Unit, v.N, v.Median, v.Q1, v.Q3)
			}
		}
	}
	w.Flush()
	fmt.Fprintf(out, "calib_drift %.3f   attempted %d   failed %d   failed_frac %.6g\n",
		r.CalibDrift, r.Attempted, r.Failed, float64(r.Failed)/float64(max(r.Attempted, 1)))
	for _, f := range r.Failures {
		fmt.Fprintln(out, "FAILED", f)
	}
}

// printContractLine prints the one JSON object the driver reads, as the
// last line of standard output.
func printContractLine(r *report) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: r.Failed == 0, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]value{}}
	list := r.EndToEnd
	if r.Traced {
		list = r.PerLayer
	}
	for _, v := range list {
		line.Metrics[v.Name] = value{v.Median, v.Unit}
	}
	b, err := json.Marshal(line)
	exitOn(err)
	fmt.Println(string(b))
}

// selfCheck runs two full sets back to back on the same code and seed and
// holds them to the benchmark's own bounds: an exact metric must read the
// same in both, a host-axis metric's medians must be within its bound.
func selfCheck(o options) int {
	o.traced = false // the bounds are on the end-to-end metrics
	var sets [2][]*report
	ok := true
	for i := range sets {
		fmt.Fprintf(os.Stderr, "benchmark: selfcheck set %d of 2\n", i+1)
		var setOK bool
		sets[i], setOK = runAll(o, io.Discard)
		ok = ok && setOK && len(sets[i]) == len(workloads)
	}
	writeJSON(o.out, sets)
	if !ok {
		fmt.Println("selfcheck: FAIL: a run failed its correctness checks or did not finish")
		return 1
	}
	fmt.Printf("selfcheck: two sets of %d workloads, seed %d, %g s timed each\n", len(workloads), o.seed, o.seconds)
	fmt.Printf("host: %s\n", sets[0][0].Host)
	w := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(w, "workload\tmetric\tmedian 1 [q1, q3]\tmedian 2 [q1, q3]\tgap\tbound\t\t")
	for wi := range workloads {
		a, b := sets[0][wi], sets[1][wi]
		for _, d := range endToEnd {
			va, vb := a.find(d.name), b.find(d.name)
			gap := vb.Median/va.Median - 1
			verdict, bound := "PASS", fmt.Sprintf("%.0f%%", 100*d.bound)
			if d.exact {
				bound = "equal"
				if va.Median != vb.Median {
					verdict = "FAIL"
				}
			} else if math.Abs(gap) > d.bound {
				verdict = "FAIL"
			}
			if verdict == "FAIL" {
				ok = false
			}
			fmt.Fprintf(w, "%s\t%s\t%.6g [%.6g, %.6g]\t%.6g [%.6g, %.6g]\t%+.2f%%\t%s\t%s\t\n",
				a.Workload, d.name, va.Median, va.Q1, va.Q3, vb.Median, vb.Q1, vb.Q3, 100*gap, bound, verdict)
		}
		fmt.Fprintf(w, "%s\tcalib_drift\t%.2f\t%.2f\t\t\t\t\n", a.Workload, a.CalibDrift, b.CalibDrift)
	}
	w.Flush()
	if !ok {
		fmt.Println("selfcheck: FAIL")
		return 1
	}
	fmt.Println("selfcheck: PASS")
	return 0
}
