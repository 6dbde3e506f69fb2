// Package harness runs workloads on collector configurations and
// aggregates the measurements behind every table and figure in the
// paper's evaluation: heap-size sweeps (1x-3x the minimum heap,
// log-spaced, as in §4.1), minimum-heap binary search (Table 1),
// relative-to-best normalization and geometric means across benchmarks
// (Figures 5-10), and MMU curves (Figure 11).
package harness

import (
	"fmt"

	"beltway/internal/collectors"
	"beltway/internal/core"
	"beltway/internal/mmu"
	"beltway/internal/policy"
	"beltway/internal/server"
	"beltway/internal/shard"
	"beltway/internal/stats"
	"beltway/internal/telemetry"
	"beltway/internal/workload"
)

// Env fixes the machine-level parameters of an experiment.
type Env struct {
	FrameBytes   int     // simulated frame size
	PhysMemBytes int     // physical memory for the paging model (0 = off)
	Scale        float64 // workload scale
	Seed         int64
	Pretenure    bool // route known-long-lived allocation sites to older belts
	// Telemetry returns every run's retained event stream (the flight
	// recorder's snapshot) in Result.Telemetry. Telemetry observes the
	// clock without advancing it, so enabling it changes no measurement.
	Telemetry bool `json:",omitempty"`
	// Mutators, when > 1, runs the workload on that many mutator lanes
	// (internal/shard), one goroutine each: every lane drives a private
	// heap with the same configuration and its own decorrelated seed
	// stream, and the measurement is the simulated N-core makespan.
	// 0 and 1 both mean the classic single-mutator run: one lane, on the
	// calling goroutine.
	Mutators int `json:",omitempty"`
	// Policy, when non-empty, attaches the adaptive policy controller
	// (internal/policy) with this SLO spec — policy.Parse syntax, "slo"
	// for server.DefaultSLO or e.g. "slo:max=4e6". Adaptive runs are
	// single-mutator only. Empty (the default) leaves every run exactly
	// as static as the paper's.
	Policy string `json:",omitempty"`
}

// DefaultEnv mirrors the paper's testbed at scale 1: see EnvForScale.
func DefaultEnv() Env { return EnvForScale(1.0) }

// EnvForScale mirrors the paper's testbed at a given workload scale.
// Frame size and modelled physical memory both shrink with the workload
// so that heap geometry stays comparable:
//
//   - frames: 16KB at scale 1 (increments then span dozens of frames at
//     benchmark min heaps, as the paper's do), power-of-two rounded,
//     clamped to [2KB, 64KB];
//   - physical memory: 16MB at scale 1, preserving the paper's ratio of
//     physical memory to pseudojbb's minimum heap (128MB : 70MB ≈ 1.8)
//     so that, as in Figure 1(b), only pseudojbb's large-heap
//     configurations page.
func EnvForScale(scale float64) Env {
	frame := 2048
	for float64(frame*2) <= 16384*scale && frame < 65536 {
		frame *= 2
	}
	return Env{
		FrameBytes:   frame,
		PhysMemBytes: int(16 * 1024 * 1024 * scale),
		Scale:        scale,
		Seed:         workload.DefaultParams().Seed,
	}
}

// Options is the geometry every collector preset is built from, for a
// heap of heapBytes on this Env's machine: the one place a front end
// turns an Env into core.Options, so no run leaves the paging model out.
func (e Env) Options(heapBytes int) core.Options {
	return core.Options{HeapBytes: heapBytes, FrameBytes: e.FrameBytes, PhysMemBytes: e.PhysMemBytes}
}

// ConfigFunc builds a collector configuration for a given heap size.
// Presets are curried over everything but the heap size so the sweep can
// vary it.
type ConfigFunc func(heapBytes int) core.Config

// AppelConfig curries the Appel-style baseline over the heap size: the
// collector every minimum-heap search runs (Table 1).
func AppelConfig(env Env) ConfigFunc {
	return func(heapBytes int) core.Config { return collectors.Appel(env.Options(heapBytes)) }
}

// Result is one (collector, benchmark, heap size) measurement.
type Result struct {
	Collector string
	Benchmark string
	HeapBytes int
	// Mutators records the shard count of a multi-mutator run (0 for the
	// classic single-mutator path). Sharded results aggregate: TotalTime
	// is the simulated N-core makespan, counters are summed over shards.
	Mutators int `json:",omitempty"`

	TotalTime float64 // cost units
	GCTime    float64
	MaxPause  float64
	Pauses    []stats.Pause
	Counters  stats.Counters

	Collections uint64
	OOM         bool // run did not complete at this heap size
	// Aborted marks a run a cost budget cut short, which older binaries
	// recorded. Nothing sets it now: a run ends by finishing, by running
	// out of memory or by panicking. It stays because checkpoints and farm
	// ledgers those binaries wrote can carry it and the benchmark reads
	// it; readers treat a true value as incomplete.
	Aborted bool `json:",omitempty"`
	// Failure records an execution failure (panic, job error) observed
	// by the engine instead of a measurement. All metric fields
	// are zero; aggregation treats the point like an OOM.
	Failure string `json:",omitempty"`
	// Telemetry is the run's retained flight-recorder events, present
	// only when Env.Telemetry was set.
	Telemetry *telemetry.RunSnapshot `json:",omitempty"`
	// Server is the request/latency report of a Server workload's run;
	// nil for benchmark runs.
	Server *server.Report `json:",omitempty"`
	// Policy is the adaptive controller's digest (decision count, knob
	// drift), present only when Env.Policy was set.
	Policy *policy.Summary `json:",omitempty"`
}

// Incomplete reports whether the run produced no valid end-to-end
// measurement: out of memory, failed, or aborted (an older record).
// Aggregation renders such points as missing data.
func (r *Result) Incomplete() bool { return r.OOM || r.Aborted || r.Failure != "" }

// GCFraction returns the share of total time spent collecting.
func (r *Result) GCFraction() float64 {
	if r.TotalTime == 0 {
		return 0
	}
	return r.GCTime / r.TotalTime
}

// MMU computes the run's minimum-mutator-utilization curve.
func (r *Result) MMU(points int) mmu.Curve {
	return mmu.Sample(r.Pauses, r.TotalTime, r.MaxPause, r.GCTime, points)
}

// Run executes one workload on one collector configuration: the single
// pipeline behind every measurement. It builds max(1, Env.Mutators)
// lanes (shard.New: a private heap, mutator, seed stream and flight
// recorder each), has the workload bind its round bodies to them, runs
// the plan — on the calling goroutine for one lane (shard.RunSerial), on
// one goroutine per lane otherwise — and assembles the Result:
//
//   - one lane: every field read straight off the lane's clock;
//   - N lanes: TotalTime is the simulated N-core makespan (critical
//     path, not the sum of lane timelines); GCTime/MaxPause the
//     critical path's view, max over lanes; Counters/Collections summed
//     (aggregate work); Pauses concatenated in lane order (quantiles
//     stay meaningful, MMU windows are conservative since concurrent
//     pauses overlap); Mutators records N.
//
// A run ends in one of three ways. Its workload finishes; or it runs
// out of memory, reported via Result.OOM with the partial measurement,
// not as an error; or a lane panics, which leaves the run's state
// untrustworthy: no Result, a *HeapCorruptionError carrying the panic
// and the lane's flight-recorder tail. Other errors are
// misconfiguration.
func Run(cfg core.Config, w Workload, env Env) (*Result, error) {
	ctrl, err := envController(env)
	if err != nil {
		return nil, err
	}
	if ctrl != nil {
		cfg.Policy = ctrl
	}
	wrap := func(err error) error {
		return fmt.Errorf("harness: %s on %s: %w", cfg.Name, w.Name(), err)
	}
	n := max(env.Mutators, 1)
	rt, err := shard.New(cfg, shard.Options{
		Shards: n,
		Seed:   w.seed(env),
		// The flight recorder is always attached (hook emission reads the
		// clock without advancing it, so this changes no measurement): a
		// panicking run needs its event tail for the corruption report
		// even when Env.Telemetry is off.
		Telemetry: true,
	})
	if err != nil {
		return nil, wrap(err)
	}
	// The Result is read off the clocks, never the heaps, and copies the
	// events it keeps: once it is taken the heaps and the recorder rings
	// go to the next run.
	defer rt.Release()
	lanes := rt.Shards()
	if ctrl != nil {
		ctrl.SetEmitter(lanes[0].Tele.PolicyObserver())
	}
	plan, report, err := w.plan(lanes, env, ctrl)
	if err != nil {
		return nil, wrap(err)
	}
	if n == 1 {
		err = rt.RunSerial(plan)
	} else {
		err = rt.Run(plan)
	}
	if err != nil {
		return nil, wrap(err)
	}
	for _, s := range lanes {
		if p := s.Panic(); p != nil {
			return nil, &HeapCorruptionError{
				Collector: cfg.Name,
				Benchmark: w.Name(),
				Lane:      s.ID,
				Lanes:     n,
				Panic:     p,
				Events:    s.Tele.Recorder().Last(corruptionEventTail),
			}
		}
	}

	res := &Result{
		Collector: cfg.Name,
		Benchmark: w.Name(),
		HeapBytes: cfg.HeapBytes,
		TotalTime: lanes[0].Heap.Clock().TotalTime(),
	}
	if n > 1 {
		res.Mutators = n
		res.TotalTime = rt.Makespan()
	}
	for _, s := range lanes {
		c := s.Heap.Clock()
		res.Counters.Add(c.Counters)
		res.Collections += s.Heap.Collections()
		res.GCTime = max(res.GCTime, c.GCTime())
		res.MaxPause = max(res.MaxPause, c.MaxPause())
		res.Pauses = append(res.Pauses, c.Pauses()...)
		res.OOM = res.OOM || s.OOM()
	}
	if report != nil {
		res.Server = report()
	}
	if env.Telemetry {
		if n == 1 {
			res.Telemetry = lanes[0].Tele.Snapshot()
		} else {
			res.Telemetry = rt.MergedTelemetry()
		}
	}
	if ctrl != nil {
		res.Policy = ctrl.Summary()
	}
	return res, nil
}

// RunOne is Run on a benchmark.
func RunOne(cfg core.Config, bench *workload.Benchmark, env Env) (*Result, error) {
	return Run(cfg, Bench(bench), env)
}

// RunServer is Run on a server workload.
func RunServer(cfg core.Config, sc server.Config, slo server.SLO, env Env) (*Result, error) {
	return Run(cfg, Server(sc, slo), env)
}
