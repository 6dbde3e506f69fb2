package harness

import (
	"testing"

	"beltway/internal/collectors"
	"beltway/internal/core"
	"beltway/internal/server"
	"beltway/internal/shard"
	"beltway/internal/workload"
)

func shardedTestConfig(t *testing.T, env Env) core.Config {
	t.Helper()
	cfg, err := collectors.Parse("25.25.100", collectors.Options{
		HeapBytes: 3 << 20, FrameBytes: env.FrameBytes, PhysMemBytes: 0})
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

// TestRunShardedScaling pins the acceptance bound on scale-out: 8
// mutators must deliver at least 3x the aggregate allocation+collection
// throughput of 1, measured against the simulated N-core makespan (the
// host's core count is irrelevant — shard clocks advance in cost units).
func TestRunShardedScaling(t *testing.T) {
	env := EnvForScale(0.25)
	env.PhysMemBytes = 0
	cfg := shardedTestConfig(t, env)
	bench := workload.Jess()

	throughput := func(n int) float64 {
		env := env
		env.Mutators = n
		res, err := Run(cfg, Bench(bench), env)
		if err != nil {
			t.Fatal(err)
		}
		if res.OOM || res.Failure != "" {
			t.Fatalf("%d mutators: OOM=%v failure=%q", n, res.OOM, res.Failure)
		}
		if res.TotalTime <= 0 {
			t.Fatalf("%d mutators: non-positive makespan", n)
		}
		return float64(res.Counters.BytesAllocated+res.Counters.BytesCopied) / res.TotalTime
	}
	t1 := throughput(1)
	t8 := throughput(8)
	if t8 < 3*t1 {
		t.Fatalf("8-mutator throughput %.2f B/cost vs 1-mutator %.2f: %.2fx, want >= 3x", t8, t1, t8/t1)
	}
}

// TestRunOneDispatchesSharded checks that Env.Mutators reaches Run
// through RunOne: Mutators > 1 produces an aggregated N-lane result.
func TestRunOneDispatchesSharded(t *testing.T) {
	env := EnvForScale(0.25)
	env.PhysMemBytes = 0
	env.Mutators = 2
	cfg := shardedTestConfig(t, env)
	res, err := RunOne(cfg, workload.DB(), env)
	if err != nil {
		t.Fatal(err)
	}
	if res.Mutators != 2 {
		t.Fatalf("Mutators = %d, want 2", res.Mutators)
	}
	if res.OOM {
		t.Fatal("unexpected OOM")
	}
}

// TestRunShardedWaitsOnlyToCollect holds the plans Run hands to two
// lanes to what the shard schedule promises them, by count rather than
// by stopwatch: a lane blocks for the other only at a rendezvoused
// global collection — once, after the benchmark body — and the server's
// arrival batches, which never collect globally, never make it wait.
func TestRunShardedWaitsOnlyToCollect(t *testing.T) {
	const lanes = 2
	env := EnvForScale(0.1)
	env.PhysMemBytes = 0
	sc := serverTestConfig()
	for _, c := range []struct {
		w   Workload
		cfg core.Config
	}{
		{Bench(workload.Jess()), shardedTestConfig(t, env)},
		{Server(sc, server.SLO{}), serverCollector(t, "25.25", sc, env, 4)},
	} {
		rt, err := shard.New(c.cfg, shard.Options{
			Shards: lanes, Seed: c.w.seed(env), Telemetry: true})
		if err != nil {
			t.Fatal(err)
		}
		bw, err := c.w.bind(rt.Shards(), env, nil)
		if err != nil {
			t.Fatal(err)
		}
		plan := bw.plan()
		if err := rt.Run(plan); err != nil {
			t.Fatal(err)
		}
		for _, s := range rt.Shards() {
			if s.Dead() {
				t.Fatalf("%s: lane %d: %v", c.w.Name(), s.ID, s.Err())
			}
		}
		boundaries := 0
		if plan.CollectEvery > 0 {
			boundaries = plan.Rounds / plan.CollectEvery
		}
		if got := rt.Waits(); got != boundaries {
			t.Errorf("%s: %d rounds, %d blocking waits, want one per global collection: %d",
				c.w.Name(), plan.Rounds, got, boundaries)
		}
		bw.release()
		rt.Release()
	}
}
