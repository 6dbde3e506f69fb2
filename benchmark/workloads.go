package main

import (
	"fmt"
	"time"

	"beltway/internal/collectors"
	"beltway/internal/core"
	"beltway/internal/harness"
	"beltway/internal/server"
	"beltway/internal/workload"
)

// Sizes. The issue sized the benchmark-suite workloads at scale 1 (19 s of
// min-heap search, 5 s rounds); the driver's contract gives every run of a
// workload about 35 s all told, three set-ups included, so they run at a
// tenth of that. Jobs were kept and rounds cut, as the issue asks.
const (
	benchScale  = 0.1
	serverScale = 2
	sloSpec     = "p99=10e3,p99.9=1e6,max=5e6"
	defaultSeed = 20020617 // workload.DefaultParams().Seed
)

// preset is one collector at one heap factor.
type preset struct {
	spec   string
	factor float64
}

// The collector set-ups of each workload. gc_tight: ss and appel completed
// at 1.1x the Appel minimum on every seed tried (1-100 and 100-159);
// 25.25.100 ran out of memory there on javac at seeds 18, 19 and 34, never
// at 1.15x, and runs at 1.25x for margin, since the driver picks the seeds.
// immix needs 2x, its headroom knee (jess fails at 1.8x on every seed).
// mutator_roomy: at a tenth of scale 1 the issue's 3x still left
// collections 17% of wall time; 6x brings them to the 6% it measured at
// scale 1, which is what makes this the workload a collector change
// bypasses.
var (
	gcTightPresets = []preset{{"ss", 1.1}, {"appel", 1.1}, {"25.25.100", 1.25}, {"immix", 2.0}}
	roomyPresets   = []preset{{"25.25.100", 6}, {"appel", 6}, {"cards:25.25.100", 6}}
	serverVariants = []serverVariant{
		{"appel", "", 0}, {"fixed:25", "", 0}, {"25.25", "", 0}, {"25.25.100", "", 0},
		{"25.25-mr", "", 0}, {"immix", "", 0}, {"fixed:25", "slo", 0}, {"25.25", "", 2},
	}
	gridCollectors = []string{"appel", "25.25.100", "fixed:25"}
)

// serverVariant is one server_mix job: a collector, an adaptive policy
// objective or none, and a mutator count (0 = the flat path).
type serverVariant struct {
	spec, policy string
	mutators     int
}

// job is one simulated run of a round: a benchmark or a server script on
// one collector at one heap size.
type job struct {
	name      string
	group     string // jobs of one group run the same mutator and must agree on what it did
	spec      string
	heapBytes int
	env       harness.Env
	bench     *workload.Benchmark // nil for a server job
	server    server.Config
	slo       server.SLO
}

func (j *job) config() (core.Config, error) {
	return collectors.Parse(j.spec, collectors.Options{
		HeapBytes:    j.heapBytes,
		FrameBytes:   j.env.FrameBytes,
		PhysMemBytes: j.env.PhysMemBytes,
	})
}

// run executes the job the way the CLIs do, through the harness.
func (j *job) run() (*harness.Result, error) {
	cfg, err := j.config()
	if err != nil {
		return nil, err
	}
	if j.bench == nil {
		return harness.RunServer(cfg, j.server, j.slo, j.env)
	}
	return harness.RunOne(cfg, j.bench, j.env)
}

// ops is the job's unit of work: simulated objects allocated, or requests.
func (j *job) ops(res *harness.Result) float64 {
	if res.Server != nil {
		return float64(res.Server.Overall.Requests)
	}
	return float64(res.Counters.ObjectsAllocated)
}

// plan is a workload after set-up: what one round runs.
type plan struct {
	jobs []*job    // gc_tight, mutator_roomy, server_mix
	grid *gridPlan // grid_small_jobs

	// What set-up's min-heap searches cost, for the harness layer metrics:
	// runs made, their wall time, and the kernel runs among them (one
	// before each).
	minHeapProbes int
	minHeapWall   time.Duration
	minHeapKernel time.Duration
}

type workloadDef struct {
	name string
	why  string
	op   string // what one operation is
	// setup does everything a user waits for before the first job: it is
	// timed as setup_s. seed reaches the program only as Env.Seed,
	// server.Config.Seed and the heaps searched under them. A long set-up
	// calls tick between its steps to run the calibration kernel.
	setup func(seed int64, tmpRoot string, tick func() time.Duration) (*plan, error)
}

var workloads = []workloadDef{
	{
		name: "gc_tight",
		why:  "six benchmarks on ss and appel at 1.1x min heap, 25.25.100 at 1.25x and immix at 2x: collections take the largest share of wall time they can",
		op:   "simulated object",
		setup: func(seed int64, _ string, tick func() time.Duration) (*plan, error) {
			return setupBenchJobs(seed, benchScale, tick, gcTightPresets)
		},
	},
	{
		name: "mutator_roomy",
		why:  "the same benchmarks at 6x min heap on frame, boundary and card barriers: allocation and barriers dominate, a collector change should not move it",
		op:   "simulated object",
		setup: func(seed int64, _ string, tick func() time.Duration) (*plan, error) {
			return setupBenchJobs(seed, benchScale, tick, roomyPresets)
		},
	},
	{
		name:  "server_mix",
		why:   "request traffic (90% reads, flip to 10% reads, key growth) at 3x live on eight collector set-ups: latency not throughput, and the only path through server, policy and shard",
		op:    "request",
		setup: setupServerJobs,
	},
	{
		name:  "grid_small_jobs",
		why:   "a fig9 suite and a 45-job two-worker farm grid at scale 0.1: runs are tiny so harness, engine, farm and experiments plumbing dominates",
		op:    "job",
		setup: setupGrid,
	},
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

func appelAt(env harness.Env) harness.ConfigFunc {
	return func(heapBytes int) core.Config {
		cfg, err := collectors.Parse("appel", collectors.Options{
			HeapBytes: heapBytes, FrameBytes: env.FrameBytes, PhysMemBytes: env.PhysMemBytes})
		if err != nil {
			panic(err) // "appel" is a fixed, valid spec
		}
		return cfg
	}
}

// setupBenchJobs finds each benchmark's Appel minimum heap under the seed,
// as `cmd/beltway -heap` does before every run, and sizes one job per
// (benchmark, preset) from it. The kernel runs before every probe of the
// search.
func setupBenchJobs(seed int64, scale float64, tick func() time.Duration, presets []preset) (*plan, error) {
	env := harness.EnvForScale(scale)
	env.Seed = seed
	p := &plan{}
	mk := appelAt(env)
	counting := func(heapBytes int) core.Config {
		p.minHeapProbes++
		p.minHeapKernel += tick()
		return mk(heapBytes)
	}
	for _, b := range workload.All() {
		t0, k0 := time.Now(), p.minHeapKernel
		min, err := harness.FindMinHeap(counting, b, env)
		if err != nil {
			return nil, err
		}
		p.minHeapWall += time.Since(t0) - (p.minHeapKernel - k0)
		for _, ps := range presets {
			heapBytes := int(float64(min)*ps.factor) / env.FrameBytes * env.FrameBytes
			p.jobs = append(p.jobs, &job{
				name:      fmt.Sprintf("%s/%s@%gx", b.Name, ps.spec, ps.factor),
				group:     b.Name,
				spec:      ps.spec,
				heapBytes: heapBytes,
				env:       env,
				bench:     b,
			})
		}
	}
	return p, nil
}

// setupServerJobs sizes the server script's heap at three times its
// estimated live bytes, as `cmd/beltway -server -heap 3` does.
func setupServerJobs(seed int64, _ string, _ func() time.Duration) (*plan, error) {
	env := harness.EnvForScale(serverScale)
	env.Seed = seed
	sc := server.Scaled(serverScale)
	sc.Seed = seed
	slo, err := server.ParseSLO(sloSpec)
	if err != nil {
		return nil, err
	}
	heapBytes := (3*sc.EstLiveBytes()/env.FrameBytes + 1) * env.FrameBytes
	p := &plan{}
	for _, v := range serverVariants {
		j := &job{name: "server/" + v.spec, group: "server", spec: v.spec, heapBytes: heapBytes,
			env: env, server: sc, slo: slo}
		j.env.Policy = v.policy
		j.env.Mutators = v.mutators
		if v.policy != "" {
			j.name += "+" + v.policy
		}
		if v.mutators > 1 {
			// Each lane serves its own stream, so the store is another one.
			j.name += fmt.Sprintf("+m%d", v.mutators)
			j.group = j.name
		}
		p.jobs = append(p.jobs, j)
	}
	return p, nil
}
