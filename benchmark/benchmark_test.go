package main

import (
	"encoding/json"
	"go/parser"
	"go/token"
	"math"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"beltway/internal/collectors"
	"beltway/internal/harness"
	"beltway/internal/stats"
)

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// Expected values are statistics.quantiles(values, n=4).
	for _, tc := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{10, 20, 30, 40}, [3]float64{12.5, 25, 37.5}},
		{[]float64{7}, [3]float64{7, 7, 7}},
		{nil, [3]float64{0, 0, 0}},
	} {
		q1, med, q3 := quartiles(tc.in)
		if got := [3]float64{q1, med, q3}; got != tc.want {
			t.Errorf("quartiles(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
	if got := median([]float64{5, 1, 9}); got != 5 {
		t.Errorf("median = %v, want 5", got)
	}
	if got := geomean([]float64{2, 8, 0}); math.Abs(got-4) > 1e-12 {
		t.Errorf("geomean skipping the zero = %v, want 4", got)
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestNamesUnitsAndCrossReferences(t *testing.T) {
	seen := map[string]bool{}
	check := func(kind, name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("%s name %q is outside %s", kind, name, nameRE)
		}
		if seen[name] {
			t.Errorf("%s name %q is used twice", kind, name)
		}
		seen[name] = true
	}
	for _, w := range workloads {
		check("workload", w.name)
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.name)
		}
	}
	for _, d := range endToEnd {
		check("end-to-end metric", d.name)
		if d.bound < 0 || d.bound > 0.25 {
			t.Errorf("%s: bound %v is outside [0, 0.25]", d.name, d.bound)
		}
	}
	if d := findMetric(endToEnd, "setup_s"); d == nil || d.unit != "s" || d.better != "lower" {
		t.Errorf("setup_s must be an end-to-end metric in s, lower better")
	}
	for _, d := range perLayer {
		check("per-layer metric", d.name)
		if d.moves == "" && d.on == "" {
			continue // informational
		}
		if findMetric(endToEnd, d.moves) == nil {
			t.Errorf("%s moves %q, which is no end-to-end metric", d.name, d.moves)
		}
		if findWorkload(d.on) == nil {
			t.Errorf("%s is said to move it on %q, which is no workload", d.name, d.on)
		}
	}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !unitRE.MatchString(d.unit) {
			t.Errorf("%s: unit %q is outside %s", d.name, d.unit, unitRE)
		}
		if d.better != "lower" && d.better != "higher" {
			t.Errorf("%s: better is %q", d.name, d.better)
		}
		if d.what == "" {
			t.Errorf("%s: no description", d.name)
		}
	}
}

// TestBenchmarkJSONMatchesTheCode holds the driver's BENCHMARK.json and
// the tables in metrics.go and workloads.go to each other.
func TestBenchmarkJSONMatchesTheCode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var file struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&file); err != nil {
		t.Fatal(err)
	}
	if want := []string{"go", "run", "./benchmark"}; !reflect.DeepEqual(file.Command, want) {
		t.Errorf("command = %v, want %v", file.Command, want)
	}
	if want := []string{"benchmark"}; !reflect.DeepEqual(file.Paths, want) {
		t.Errorf("paths = %v, want %v", file.Paths, want)
	}
	if file.RunSeconds != runSeconds {
		t.Errorf("run_seconds = %d, the -seconds default is %d", file.RunSeconds, runSeconds)
	}
	if len(file.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in the file, %d in the code", len(file.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if file.Workloads[i].Name != w.name || file.Workloads[i].Why != w.why {
			t.Errorf("workload %d: file has %q (%q), code has %q (%q)", i,
				file.Workloads[i].Name, file.Workloads[i].Why, w.name, w.why)
		}
	}
	compare := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%d %s metrics in the file, %d in the code", len(got), kind, len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s metric %d: file has %+v, code has %s %s %s", kind, i, g, d.name, d.unit, d.better)
			}
			switch {
			case bounded && (g.Bound == nil || *g.Bound != d.bound):
				t.Errorf("%s: bound in the file does not match %v", d.name, d.bound)
			case !bounded && g.Bound != nil:
				t.Errorf("%s: a per-layer metric has no bound", d.name)
			}
		}
	}
	compare("end-to-end", file.EndToEnd, endToEnd, true)
	compare("per-layer", file.PerLayer, perLayer, false)
}

func TestEveryJobSpecParses(t *testing.T) {
	opts := collectors.Options{HeapBytes: 16 << 20, FrameBytes: 2048}
	var specs []string
	for _, ps := range append(append([]preset(nil), gcTightPresets...), roomyPresets...) {
		specs = append(specs, ps.spec)
	}
	for _, v := range serverVariants {
		specs = append(specs, v.spec)
	}
	specs = append(specs, gridCollectors...)
	for _, spec := range specs {
		cfg, err := collectors.Parse(spec, opts)
		if err != nil {
			t.Errorf("collectors.Parse(%q): %v", spec, err)
		} else if err := cfg.Validate(); err != nil {
			t.Errorf("%q parses to an invalid configuration: %v", spec, err)
		}
	}
	if _, err := setupServerJobs(1, "", nil); err != nil {
		t.Errorf("server_mix set-up: %v", err)
	}
}

func TestCalibrationKernelImportsNothingFromTheProgram(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "calib.go", nil, parser.ImportsOnly)
	if err != nil {
		t.Fatal(err)
	}
	for _, imp := range f.Imports {
		if strings.Contains(imp.Path.Value, "beltway/") {
			t.Errorf("calib.go imports %s: the kernel must not move when the program does", imp.Path.Value)
		}
	}
	c := newCalibrator()
	if d := c.run(); d <= 0 {
		t.Errorf("kernel ran in %v", d)
	}
	first := c.sink
	c.run()
	if c.sink == first {
		t.Errorf("kernel's chase did not advance: the compiler may have dropped it")
	}
}

// TestGCTightTwoRounds runs the real gc_tight job list: once through the
// harness, once directly against the layers with spans on. Nothing may
// fail, and the traced path must reproduce the harness's results to the
// byte (same digests).
func TestGCTightTwoRounds(t *testing.T) {
	m := newMeter()
	p, err := setupBenchJobs(defaultSeed, benchScale, func() time.Duration { return m.calibrate(1) }, gcTightPresets)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.jobs) != 24 || p.minHeapProbes == 0 || p.minHeapWall <= 0 {
		t.Fatalf("set-up: %d jobs, %d probes, %v searching", len(p.jobs), p.minHeapProbes, p.minHeapWall)
	}
	var chk checker
	first := p.round(m, (*job).run)
	chk.round("harness", first)
	tr := newTracer()
	var traces []*jobTrace
	second := p.round(m, func(j *job) (*harness.Result, error) {
		jt := tr.startJob(j.name, -1)
		defer jt.finish()
		traces = append(traces, jt)
		return j.direct(jt)
	})
	chk.round("traced", second)
	if chk.failed != 0 || chk.attempted != 48 {
		t.Fatalf("attempted %d, failed %d: %v", chk.attempted, chk.failed, chk.failures)
	}
	for i := range first {
		if first[i].digest == "" || first[i].digest != second[i].digest {
			t.Errorf("%s: digests %q and %q", first[i].name, first[i].digest, second[i].digest)
		}
	}
	ls := &layerSamples{sampled: map[string][]float64{}, exact: map[string]float64{}}
	p.spanShares(tr, traces, ls)
	p.exactLayers(first, traces, ls)
	if got := ls.exact["core.alloc.calls"]; got < summarize(first).ops {
		t.Errorf("core.alloc.calls = %v, below the %v objects allocated", got, summarize(first).ops)
	}
	if got := ls.exact["core.collect.count"]; got != float64(len(tr.spans)-len(traces))/4 {
		t.Errorf("core.collect.count = %v, but %d spans were kept for %d jobs", got, len(tr.spans), len(traces))
	}
	sum := 0.0
	for _, name := range []string{"core.alloc.share", "core.write_ref.share", "core.read_ref.share", "core.collect.share", "mutator.self.share"} {
		v := ls.sampled[name][0]
		// A ReadRef or WriteRef is about as long as the clock reads
		// around it, so its share net of them can land a little below 0.
		if v <= -0.05 || v >= 1 {
			t.Errorf("%s = %v, want a share", name, v)
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("shares of a job sum to %v", sum)
	}
	if cost, share, pause := simMetrics(first); cost <= 0 || share <= 0 || share >= 1 || pause <= 0 {
		t.Errorf("simulated axis: %v cost/op, %v gc share, %v max pause", cost, share, pause)
	}
}

func TestCheckerCountsAndExplainsFailures(t *testing.T) {
	result := func(objects uint64) *harness.Result {
		return &harness.Result{Counters: stats.Counters{ObjectsAllocated: objects, BytesAllocated: 64 * objects}}
	}
	round := func(digestB string, objectsB uint64) []outcome {
		return []outcome{
			{name: "a", group: "g", attempted: 1, digest: "d-a", res: result(10)},
			{name: "b", group: "g", attempted: 1, digest: digestB, res: result(objectsB)},
		}
	}
	var chk checker
	chk.round("warm-up", round("d-b", 10))
	if chk.attempted != 2 || chk.failed != 0 {
		t.Fatalf("clean round: attempted %d, failed %d", chk.attempted, chk.failed)
	}
	chk.round("round 1", round("changed", 10))
	chk.round("round 2", round("d-b", 11))
	oom := round("d-b", 10)
	oom[0].absorb(&job{}, &harness.Result{OOM: true, HeapBytes: 4096})
	oom[0].digest = "d-a"
	chk.round("round 3", oom)
	grid := []outcome{{name: "farm.run", attempted: 46, reasons: []string{"x", "y"}}}
	chk.round("round 4", grid)
	if chk.attempted != 8+46 || chk.failed != 5 {
		t.Errorf("attempted %d, failed %d, want 54 and 5: %v", chk.attempted, chk.failed, chk.failures)
	}
	for i, want := range []string{"round 1: b: result digest", "round 2: b: allocated 11 objects", "round 3: a: out of memory"} {
		if !strings.HasPrefix(chk.failures[i], want) {
			t.Errorf("failure %d = %q, want it to start %q", i, chk.failures[i], want)
		}
	}
}

func TestLayerValuesCoverEveryMetric(t *testing.T) {
	ls := &layerSamples{sampled: map[string][]float64{"core.alloc.share": {0.1, 0.2, 0.3}},
		exact: map[string]float64{"core.collect.count": 7}}
	vs := ls.values()
	if len(vs) != len(perLayer) {
		t.Fatalf("%d values for %d metrics", len(vs), len(perLayer))
	}
	for i, v := range vs {
		switch v.Name {
		case "core.alloc.share":
			if v.N != 3 || v.Median != 0.2 {
				t.Errorf("sampled metric: %+v", v)
			}
		case "core.collect.count":
			if v.N != 1 || v.Median != 7 || !v.Exact {
				t.Errorf("exact metric: %+v", v)
			}
		default:
			if v.N != 0 || v.Median != 0 || v.Name != perLayer[i].name {
				t.Errorf("metric that does not apply: %+v", v)
			}
		}
	}
}

func TestSetUpIsScaledByTheKernel(t *testing.T) {
	def := &workloadDef{name: "stub", setup: func(_ int64, _ string, tick func() time.Duration) (*plan, error) {
		tick()
		time.Sleep(2 * time.Millisecond)
		return &plan{}, nil
	}}
	p, m, warm, scaled, raw, err := setUp(def, 1, t.TempDir())
	if err != nil || p == nil {
		t.Fatal(err)
	}
	if len(warm) != 0 || m.kernelRuns != 2 {
		t.Errorf("%d warm-up jobs and %d kernel runs, want none and two (one at the start, one ticked)", len(warm), m.kernelRuns)
	}
	if raw < 0.002 {
		t.Errorf("set-up took %v s, below its 2 ms sleep", raw)
	}
	if want := raw * calibNominal.Seconds() / m.meanKernel(); math.Abs(scaled-want) > 1e-12 {
		t.Errorf("scaled set-up = %v, want %v", scaled, want)
	}
}

func TestMeterSizesTheKernelByTheJob(t *testing.T) {
	m := newMeter()
	// A long history of 3 ms kernel runs, so that one slow run on a busy
	// host does not decide the size.
	m.kernelRuns, m.kernelSum = 1000, 1000*calibNominal.Seconds()
	first := m.measure("sleep", 1, func() error { time.Sleep(40 * time.Millisecond); return nil })
	want := m.runs["sleep"]
	if first.calibRuns != want || want < 2 || m.kernelRuns != 1000+want {
		t.Errorf("a 40 ms job never seen before got %d kernel runs (%d made), want %d: one before it, the rest of a fifth of it after",
			first.calibRuns, m.kernelRuns-1000, want)
	}
	second := m.measure("sleep", 2, func() error { return nil })
	if second.calibRuns != want {
		t.Errorf("after a 40 ms job the kernel ran %d times, want %d (a fifth of the job)", second.calibRuns, want)
	}
	if third := m.measure("sleep", 1, func() error { return nil }); third.calibRuns != 1 {
		t.Errorf("after an empty job the kernel ran %d times, want 1", third.calibRuns)
	}
	s := summarize([]outcome{
		{wall: 30 * time.Millisecond, calib: 6 * time.Millisecond, calibRuns: 2},
		{wall: 10 * time.Millisecond, calib: 3 * time.Millisecond, calibRuns: 1},
	})
	if got := s.timeCal(); math.Abs(got-20.0/3) > 1e-12 {
		t.Errorf("timeCal = %v, want mean job (20 ms) over mean kernel run (3 ms)", got)
	}
}

func TestMergePoolsLegsAndHoldsTheExactAxis(t *testing.T) {
	leg := func(timeCal []float64, rss, cost float64) *report {
		r := &report{Workload: "w", Rounds: len(timeCal), Attempted: 10, CalibDrift: 2, Samples: map[string][]float64{
			"host_time_cal": timeCal, "host_mallocs_per_op": timeCal, "host_alloc_bytes_per_op": timeCal,
			"host_peak_rss_mb": {rss}, "setup_s": {rss / 10}, "sim_cost_per_op": {cost}, "sim_gc_share": {0.5}, "sim_max_pause_cost": {7}}}
		r.summarize()
		return r
	}
	run := merge([]*report{leg([]float64{1, 2}, 10, 100), leg([]float64{3}, 30, 100), leg([]float64{4, 5}, 20, 100)})
	if run.Rounds != 5 || run.Attempted != 30 || run.Failed != 0 {
		t.Errorf("rounds %d, attempted %d, failed %d", run.Rounds, run.Attempted, run.Failed)
	}
	if v := run.find("host_time_cal"); v.N != 5 || v.Median != 3 {
		t.Errorf("host_time_cal pooled: %+v", v)
	}
	if v := run.find("host_peak_rss_mb"); v.N != 3 || v.Median != 20 {
		t.Errorf("host_peak_rss_mb over legs: %+v", v)
	}
	if v := run.find("setup_s"); v.N != 3 || v.Median != 2 {
		t.Errorf("setup_s over legs: %+v", v)
	}
	bad := merge([]*report{leg([]float64{1}, 10, 100), leg([]float64{1}, 10, 101)})
	if bad.Failed != 1 || len(bad.Failures) != 1 || !strings.Contains(bad.Failures[0], "sim_cost_per_op") {
		t.Errorf("legs that disagree on the exact axis: failed %d, %v", bad.Failed, bad.Failures)
	}
}
