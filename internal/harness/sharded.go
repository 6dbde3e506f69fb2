package harness

import (
	"fmt"

	"beltway/internal/core"
	"beltway/internal/shard"
	"beltway/internal/workload"
)

// RunSharded executes one benchmark on Env.Mutators sharded mutator
// goroutines (internal/shard). Every shard runs the full benchmark body
// against a private heap with the run's configuration, seeded from its
// own decorrelated stream (shard.StreamSeed), so the aggregate is N
// independent program instances on a simulated N-core machine — the
// scale-out the paper's single-threaded testbed could not measure.
//
// Nursery and mature collections stay shard-local and concurrent; the
// run ends with one rendezvoused global collection at the final round
// barrier, fanned out over parallel workers (the safepoint-coordinated
// path). The measurement maps onto Result as:
//
//   - TotalTime: the simulated N-core makespan (critical-path cost),
//     not the sum of per-shard timelines;
//   - GCTime/MaxPause: the critical path's view — max over shards;
//   - Counters/Collections: summed over shards (aggregate work);
//   - Pauses: the concatenation of every shard's pauses (what any
//     mutator experienced; quantiles remain meaningful, MMU windows
//     are conservative since concurrent pauses overlap).
//
// RunOne dispatches here when Env.Mutators > 1; calling it directly
// with Mutators <= 1 runs a single shard through the same machinery
// (used to measure sharding overhead against the classic path).
func RunSharded(cfg core.Config, bench *workload.Benchmark, env Env) (*Result, error) {
	n := env.Mutators
	if n < 1 {
		n = 1
	}
	if env.Scale <= 0 {
		return nil, fmt.Errorf("harness: non-positive scale %v", env.Scale)
	}
	if env.FaultSeed != 0 {
		// The fault injector threads one stateful schedule through the
		// hooks of every heap that shares the config; across concurrent
		// shards that is a data race, not a deterministic chaos run.
		return nil, fmt.Errorf("harness: fault injection is single-mutator only (mutators=%d)", n)
	}
	if env.Degrade {
		cfg.Degrade = true
	}
	rt, err := shard.New(cfg, shard.Options{
		Shards:       n,
		Seed:         env.Seed,
		PerShardHeap: true, // scale-out: each mutator gets the configured heap
		Telemetry:    env.Telemetry,
	})
	if err != nil {
		return nil, fmt.Errorf("harness: %s on %s: %w", cfg.Name, bench.Name, err)
	}
	defer rt.Release()
	for _, s := range rt.Shards() {
		s.Heap.Clock().Budget = env.CostBudget
	}
	plan := shard.Plan{
		Rounds:       1,
		CollectEvery: 1, // rendezvoused global collection at the final barrier
		Body: func(round int, s *shard.Shard) {
			ctx := &workload.Ctx{
				M:         s.M,
				Types:     s.Heap.Space().Types,
				Rng:       s.Rng,
				Scale:     env.Scale,
				Pretenure: env.Pretenure,
			}
			bench.Body(ctx)
		},
	}
	if err := rt.Run(plan); err != nil {
		return nil, fmt.Errorf("harness: %s on %s: %w", cfg.Name, bench.Name, err)
	}
	sres := rt.Result()
	res := &Result{
		Collector: cfg.Name,
		Benchmark: bench.Name,
		HeapBytes: cfg.HeapBytes,
		Mutators:  n,
		TotalTime: sres.Makespan,
	}
	for _, st := range sres.PerShard {
		res.Counters.Add(st.Counters)
		res.Collections += st.Collections
		if st.GCTime > res.GCTime {
			res.GCTime = st.GCTime
		}
		if st.MaxPause > res.MaxPause {
			res.MaxPause = st.MaxPause
		}
		res.Pauses = append(res.Pauses, st.Pauses...)
		if st.OOM {
			res.OOM = true
		}
		if st.Aborted {
			res.Aborted = true
		}
		if st.Failure != "" && res.Failure == "" {
			res.Failure = fmt.Sprintf("shard %d: %s", st.ID, st.Failure)
		}
	}
	if env.Telemetry {
		res.Telemetry = rt.MergedTelemetry()
	}
	return res, nil
}
