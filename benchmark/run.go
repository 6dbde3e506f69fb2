package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"beltway/internal/harness"
)

// Run shape, the same for every workload. A run is three legs, each in a
// fresh process (main.go); a leg is set-up, one warm-up round, then timed
// rounds until its third of the time budget is spent. Before every job the
// calibration kernel runs for about calibShare of the time that job took
// the round before, so the kernel samples the host in proportion to where
// the round spends its time.
const (
	legs          = 3
	minRounds     = 2 // timed rounds a leg, whatever the budget
	calibShare    = 0.2
	maxKernelRuns = 64 // before one job
	maxWidth      = 2  // of a job and of its kernel: nproc on the reference host
)

// simRun is the simulated-axis reading of one simulated run.
type simRun struct {
	total, gcTime, maxPause, ops float64
}

// outcome is what one measured job (or grid stage) did.
type outcome struct {
	name       string
	start      time.Time
	wall       time.Duration
	calib      time.Duration // the kernel runs just before the job, summed
	calibRuns  int
	ops        float64
	mallocs    uint64
	allocBytes uint64
	attempted  int      // operations that could fail: 1, or the engine jobs of a grid stage
	reasons    []string // one per failed operation
	res        *harness.Result
	group      string
	sims       []simRun
	digest     string // must repeat from round to round
}

// inKernelRuns is the job's wall time over the mean of the kernel runs
// just before it.
func (o *outcome) inKernelRuns() float64 {
	return o.wall.Seconds() / (o.calib.Seconds() / float64(o.calibRuns))
}

func (o *outcome) fail(format string, args ...any) {
	o.reasons = append(o.reasons, fmt.Sprintf(format, args...))
}

// meter brackets jobs with the calibration kernel and the Go allocation
// counters. One goroutine measures; nothing else runs beside a job but the
// mutators or workers the job itself starts.
type meter struct {
	cals []*calibrator  // maxWidth of them
	runs map[string]int // kernel runs before each job, from its last wall time

	// Every kernel run of the process: how many, their total, the fastest
	// and the slowest, in seconds.
	kernelRuns       int
	kernelSum        float64
	fastest, slowest float64
}

func newMeter() *meter {
	m := &meter{runs: map[string]int{}, fastest: math.Inf(1)}
	for i := 0; i < maxWidth; i++ {
		m.cals = append(m.cals, newCalibrator())
	}
	return m
}

// calibrate runs the kernel once, as wide as the job it stands before
// computes (goroutines or processes).
func (m *meter) calibrate(width int) time.Duration {
	d := runWide(m.cals[:width])
	m.kernelRuns++
	m.kernelSum += d.Seconds()
	m.fastest, m.slowest = min(m.fastest, d.Seconds()), max(m.slowest, d.Seconds())
	return d
}

func (m *meter) measure(name string, width int, fn func() error) outcome {
	o := outcome{name: name, attempted: 1, calibRuns: max(m.runs[name], 1)}
	// Start every job from a collected Go heap: otherwise a job pays for
	// its predecessor's garbage, and peak RSS depends on where the Go
	// collector's cycles happened to fall (it read 99-127 MB on
	// server_mix across ten runs without this).
	runtime.GC()
	for i := 0; i < o.calibRuns; i++ {
		o.calib += m.calibrate(width)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	o.start = time.Now()
	err := fn()
	o.wall = time.Since(o.start)
	runtime.ReadMemStats(&after)
	o.mallocs = after.Mallocs - before.Mallocs
	o.allocBytes = after.TotalAlloc - before.TotalAlloc
	if err != nil {
		o.fail("%v", err)
	}
	seen := m.runs[name] > 0
	m.runs[name] = min(max(int(math.Round(calibShare*o.wall.Seconds()/m.meanKernel())), 1), maxKernelRuns)
	if !seen {
		// One kernel run stood before a job of unknown length: make up the
		// rest of its share behind it, or a warm-up round (and with it
		// setup_s) would hang on a handful of kernel runs.
		for ; o.calibRuns < m.runs[name]; o.calibRuns++ {
			o.calib += m.calibrate(width)
		}
	}
	return o
}

// meanKernel is the mean kernel time of the process so far, in seconds.
func (m *meter) meanKernel() float64 { return m.kernelSum / float64(m.kernelRuns) }

// calibDrift is the slowest kernel run over the fastest: how much the host
// itself moved during the run.
func (m *meter) calibDrift() float64 { return m.slowest / m.fastest }

// runner executes one job: through the harness for the timed rounds,
// directly against the layers for the traced ones.
type runner func(*job) (*harness.Result, error)

func (p *plan) round(m *meter, run runner) []outcome {
	if p.grid != nil {
		return p.grid.round(m, nil)
	}
	outs := make([]outcome, 0, len(p.jobs))
	for _, j := range p.jobs {
		var res *harness.Result
		o := m.measure(j.name, max(j.env.Mutators, 1), func() (err error) {
			res, err = run(j)
			return err
		})
		o.group = j.group
		if res != nil {
			o.absorb(j, res)
		}
		outs = append(outs, o)
	}
	return outs
}

// absorb reads a job's result into its outcome, outside the timed window.
func (o *outcome) absorb(j *job, res *harness.Result) {
	o.res = res
	o.ops = j.ops(res)
	o.sims = []simRun{{total: res.TotalTime, gcTime: res.GCTime, maxPause: res.MaxPause, ops: o.ops}}
	switch {
	case res.OOM:
		o.fail("out of memory in %d bytes", res.HeapBytes)
	case res.Aborted:
		o.fail("aborted by cost budget")
	case res.Failure != "":
		o.fail("failure: %s", res.Failure)
	}
	// The telemetry snapshot is the one part of a Result that a round with
	// Env.Telemetry adds; everything else must repeat.
	plain := *res
	plain.Telemetry = nil
	d, err := harness.ResultDigest(&plain)
	if err != nil {
		o.fail("digest: %v", err)
	}
	o.digest = d
}

// checker is the correctness gate: it counts operations attempted and
// failed over every round of a run, and keeps each failure's reason.
type checker struct {
	ref       map[string]string // digest of each job's first run
	attempted int
	failed    int
	failures  []string
}

func (c *checker) round(label string, outs []outcome) {
	if c.ref == nil {
		c.ref = map[string]string{}
	}
	type agreed struct {
		objects, bytes, checksum uint64
		by                       string
	}
	groups := map[string]agreed{}
	for i := range outs {
		o := &outs[i]
		if ref, ok := c.ref[o.name]; !ok {
			c.ref[o.name] = o.digest
		} else if ref != o.digest {
			o.fail("result digest %.12s differs from the first round's %.12s", o.digest, ref)
		}
		if o.res != nil && len(o.reasons) == 0 {
			got := agreed{o.res.Counters.ObjectsAllocated, o.res.Counters.BytesAllocated, 0, o.name}
			if o.res.Server != nil {
				// Requests differ by collector in nothing but timing, so
				// the store they leave must be the same one.
				got = agreed{0, 0, o.res.Server.StoreChecksum, o.name}
			}
			want, ok := groups[o.group]
			switch {
			case !ok:
				groups[o.group] = got
			case want.objects != got.objects || want.bytes != got.bytes:
				o.fail("allocated %d objects / %d bytes, but %s allocated %d / %d",
					got.objects, got.bytes, want.by, want.objects, want.bytes)
			case want.checksum != got.checksum:
				o.fail("store checksum %x, but %s left %x", got.checksum, want.by, want.checksum)
			}
		}
		c.attempted += o.attempted
		c.failed += min(len(o.reasons), o.attempted)
		for _, r := range o.reasons {
			c.failures = append(c.failures, fmt.Sprintf("%s: %s: %s", label, o.name, r))
		}
	}
}

// roundStat is one round's host-axis reading.
type roundStat struct {
	jobs, wall, calib, calibRuns, ops, mallocs, allocBytes float64
}

func summarize(outs []outcome) roundStat {
	var s roundStat
	for i := range outs {
		s.jobs++
		s.wall += outs[i].wall.Seconds()
		s.calib += outs[i].calib.Seconds()
		s.calibRuns += float64(outs[i].calibRuns)
		s.ops += outs[i].ops
		s.mallocs += float64(outs[i].mallocs)
		s.allocBytes += float64(outs[i].allocBytes)
	}
	return s
}

// timeCal is the mean job's wall time in kernel runs: every kernel run of
// the round counts alike, and there are more of them before longer jobs,
// so the divisor is the kernel's mean time over the round weighted by
// where the round spent its time.
func (s roundStat) timeCal() float64 { return s.wall / s.jobs / (s.calib / s.calibRuns) }

// simMetrics reads the simulated axis off one round. It is the same on
// every round, which the digests check.
func simMetrics(outs []outcome) (costPerOp, gcShare, maxPause float64) {
	var perOp, pauses []float64
	var gcTime, total float64
	for i := range outs {
		for _, s := range outs[i].sims {
			if s.ops > 0 {
				perOp = append(perOp, s.total/s.ops)
			}
			pauses = append(pauses, s.maxPause)
			gcTime += s.gcTime
			total += s.total
		}
	}
	if total > 0 {
		gcShare = gcTime / total
	}
	return geomean(perOp), gcShare, geomean(pauses)
}

// report is everything one run of one workload measured.
type report struct {
	Workload   string               `json:"workload"`
	Seed       int64                `json:"seed"`
	Traced     bool                 `json:"traced"`
	Host       hostInfo             `json:"host"`
	Op         string               `json:"op"`
	Rounds     int                  `json:"rounds"`
	JobsARound int                  `json:"jobs_a_round"`
	EndToEnd   []metricValue        `json:"end_to_end,omitempty"`
	PerLayer   []metricValue        `json:"per_layer,omitempty"`
	Info       []metricValue        `json:"info,omitempty"`
	CalibDrift float64              `json:"calib_drift"`
	Attempted  int                  `json:"attempted"`
	Failed     int                  `json:"failed"`
	Failures   []string             `json:"failures,omitempty"`
	Samples    map[string][]float64 `json:"samples,omitempty"` // the readings behind the end-to-end metrics
	Spans      []span               `json:"spans,omitempty"`
	Calls      []callAgg            `json:"calls,omitempty"`
}

func (r *report) find(name string) *metricValue {
	for _, list := range [][]metricValue{r.EndToEnd, r.PerLayer} {
		for i := range list {
			if list[i].Name == name {
				return &list[i]
			}
		}
	}
	return nil
}

// setUp does what a leg does before its first timed round: the workload's
// set-up (minimum-heap searches, job list, scratch directory, the kernel's
// own buffers) and the warm-up round, which is where anything lazy or
// cached is paid for. It returns the time that took twice: raw wall
// seconds, and scaled, in seconds of a host that runs the kernel in
// calibNominal. The kernel runs throughout (before every search probe and
// every job); its own time is taken out, and the rest is divided by its
// mean, so a slow period of the host does not read as a slow set-up.
func setUp(def *workloadDef, seed int64, tmpRoot string) (p *plan, m *meter, warm []outcome, scaled, raw float64, err error) {
	t0 := time.Now()
	m = newMeter()
	tick := func() time.Duration { return m.calibrate(1) }
	tick()
	if p, err = def.setup(seed, tmpRoot, tick); err != nil {
		return nil, nil, nil, 0, 0, fmt.Errorf("%s: set-up: %w", def.name, err)
	}
	warm = p.round(m, (*job).run)
	raw = time.Since(t0).Seconds() - m.kernelSum
	return p, m, warm, raw * calibNominal.Seconds() / m.meanKernel(), raw, nil
}

// runLeg takes one leg's readings of the end-to-end metrics, tracing off.
func runLeg(def *workloadDef, seed int64, seconds float64, tmpRoot string) (*report, error) {
	rep := &report{Workload: def.name, Seed: seed, Host: readHost(), Op: def.op, Samples: map[string][]float64{}}
	p, m, warm, setupScaled, setupRaw, err := setUp(def, seed, tmpRoot)
	if err != nil {
		return nil, err
	}
	var chk checker
	chk.round("warm-up", warm)
	rep.JobsARound = len(warm)

	add := func(name string, v float64) { rep.Samples[name] = append(rep.Samples[name], v) }
	start := time.Now()
	for r := 1; r <= minRounds || time.Since(start).Seconds() < seconds; r++ {
		outs := p.round(m, (*job).run)
		chk.round(fmt.Sprintf("round %d", r), outs)
		s := summarize(outs)
		add("host_time_cal", s.timeCal())
		add("host_mallocs_per_op", s.mallocs/s.ops)
		add("host_alloc_bytes_per_op", s.allocBytes/s.ops)
		add("round_wall_s", s.wall)
		add("ops_per_s", s.ops/s.wall)
		rep.Rounds = r
	}
	costPerOp, gcShare, maxPause := simMetrics(warm)
	add("host_peak_rss_mb", peakRSSMB())
	add("setup_s", setupScaled)
	add("setup_wall_s", setupRaw)
	add("sim_cost_per_op", costPerOp)
	add("sim_gc_share", gcShare)
	add("sim_max_pause_cost", maxPause)
	rep.CalibDrift = m.calibDrift()
	rep.Attempted, rep.Failed, rep.Failures = chk.attempted, chk.failed, chk.failures
	rep.summarize()
	return rep, nil
}

// info are printed under the end-to-end metrics for orientation and gate
// nothing: raw wall time and throughput do not repeat within a tenth on a
// shared host.
var info = []metricDef{
	{name: "setup_wall_s", unit: "s"},
	{name: "round_wall_s", unit: "s"},
	{name: "ops_per_s", unit: "1/s"},
}

// summarize turns the samples of a leg, or of a run's legs pooled, into
// the end-to-end metrics.
func (r *report) summarize() {
	r.EndToEnd, r.Info = nil, nil
	for i := range endToEnd {
		d := &endToEnd[i]
		vs := r.Samples[d.name]
		if !d.exact {
			r.EndToEnd = append(r.EndToEnd, sampled(d, vs))
			continue
		}
		// Read off the simulator's clock: every leg must have read the same.
		r.EndToEnd = append(r.EndToEnd, single(d, vs[0]))
		for leg, v := range vs {
			if v != vs[0] {
				r.Attempted++
				r.Failed++
				r.Failures = append(r.Failures, fmt.Sprintf("leg %d: %s: %v, but leg 1 read %v", leg+1, d.name, v, vs[0]))
			}
		}
	}
	for i := range info {
		r.Info = append(r.Info, sampled(&info[i], r.Samples[info[i].name]))
	}
}

// merge pools the legs of one run.
func merge(reps []*report) *report {
	run := *reps[0]
	run.Samples = map[string][]float64{}
	run.Rounds, run.Attempted, run.Failed, run.Failures = 0, 0, 0, nil
	for i, leg := range reps {
		for name, vs := range leg.Samples {
			run.Samples[name] = append(run.Samples[name], vs...)
		}
		run.Rounds += leg.Rounds
		run.Attempted += leg.Attempted
		run.Failed += leg.Failed
		for _, f := range leg.Failures {
			run.Failures = append(run.Failures, fmt.Sprintf("leg %d: %s", i+1, f))
		}
		run.CalibDrift = max(run.CalibDrift, leg.CalibDrift)
	}
	if !run.Traced {
		run.summarize()
	}
	return &run
}
