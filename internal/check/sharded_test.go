package check

import (
	"testing"
)

// TestShardedOracleBattery is the sharded differential battery: every
// collector preset (mark-region and Immix included) runs every
// workload-shaped seed script dealt over 3 shards, concurrently and
// serially, and the schedules must agree on every shard's fingerprint,
// serial stream and OOM verdict. Every run must reach at least one
// global collection, so the battery cannot silently stop exercising the
// rendezvous. On top of the per-preset parallel-vs-serial diff, the
// parallel outcomes are also compared ACROSS presets — the sharded
// runtime must preserve the flat oracle's central property that
// mutator-observable semantics are configuration independent.
func TestShardedOracleBattery(t *testing.T) {
	const shards = 3
	cfgs, err := PresetConfigs()
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range SeedScripts() {
		seed := seed
		t.Run(seed.Name, func(t *testing.T) {
			t.Parallel()
			// ref holds the first preset's parallel outcomes for the
			// cross-preset comparison.
			var ref []Outcome
			for _, cfg := range cfgs {
				run := RunScriptSharded(seed.Script, cfg, shards, DefaultOpsPerRound)
				if run.Failed() {
					t.Fatalf("%s sharded oracle diverges on %s:\n%s", cfg.Name, seed.Name, run.String())
				}
				if run.Waits == 0 {
					t.Fatalf("%s on %s: %d rounds made no global collection", cfg.Name, seed.Name, run.Rounds)
				}
				for _, o := range run.Parallel {
					if o.OOM {
						t.Fatalf("%s: %s OOMs under the sharded oracle sizing policy", seed.Name, o.Name)
					}
				}
				if ref == nil {
					ref = run.Parallel
					continue
				}
				for i := range run.Parallel {
					for _, d := range compare(ref[i], run.Parallel[i], "OOM=%v vs OOM=%v") {
						t.Errorf("shard %d: %s", i, d)
					}
				}
			}
		})
	}
}

// TestShardedOracleShardCounts runs one seed over several shard
// widths, including 1 (a single shard collecting alone), and requires
// every width to replay cleanly with the script cut into multiple
// rounds so global collections actually run.
func TestShardedOracleShardCounts(t *testing.T) {
	cfgs, err := PresetConfigs()
	if err != nil {
		t.Fatal(err)
	}
	seed := SeedScripts()[0]
	for _, shards := range []int{1, 2, 4} {
		run := RunScriptSharded(seed.Script, cfgs[0], shards, 32)
		if run.Failed() {
			t.Fatalf("%d shards diverge:\n%s", shards, run.String())
		}
		if run.Rounds < 2 {
			t.Fatalf("%d shards: script cut into %d rounds; no global collection ran", shards, run.Rounds)
		}
	}
}

// TestDealScript pins the round-robin deal: op i lands on shard i%n in
// order, and re-concatenating by position reproduces the interleaving.
func TestDealScript(t *testing.T) {
	var s Script
	for i := 0; i < 10; i++ {
		s = append(s, Op{Kind: OpWork, A: byte(i)})
	}
	subs := DealScript(s, 3)
	if len(subs[0]) != 4 || len(subs[1]) != 3 || len(subs[2]) != 3 {
		t.Fatalf("deal lengths %d/%d/%d", len(subs[0]), len(subs[1]), len(subs[2]))
	}
	for i, op := range s {
		got := subs[i%3][i/3]
		if got != op {
			t.Fatalf("op %d dealt wrong: %+v != %+v", i, got, op)
		}
	}
}
