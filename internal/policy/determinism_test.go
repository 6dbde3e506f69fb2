package policy_test

import (
	"reflect"
	"testing"

	"beltway/internal/collectors"
	"beltway/internal/core"
	"beltway/internal/harness"
	"beltway/internal/heap"
	"beltway/internal/policy"
	"beltway/internal/server"
	"beltway/internal/vm"
	"beltway/internal/workload"
)

// runAdaptiveServer runs the server workload once with a fresh
// controller on the given objective and returns the controller (for its
// decision log) and the run's report.
func runAdaptiveServer(t *testing.T, objective string, seed int64) (*policy.Controller, *server.Report) {
	t.Helper()
	sc := server.Scaled(0.25)
	sc.Seed = seed
	env := harness.EnvForScale(0.25)
	hb := int(float64(sc.EstLiveBytes()) * 3)
	hb = (hb/env.FrameBytes + 1) * env.FrameBytes
	cfg, err := collectors.Parse("fixed:25", collectors.Options{
		HeapBytes: hb, FrameBytes: env.FrameBytes})
	if err != nil {
		t.Fatal(err)
	}
	pc, err := policy.Parse(objective)
	if err != nil {
		t.Fatal(err)
	}
	ctrl := policy.New(pc)
	cfg.Policy = ctrl
	types := heap.NewRegistry()
	h, err := core.New(cfg, types)
	if err != nil {
		t.Fatal(err)
	}
	m := vm.New(h)
	loop, err := server.NewLoop(sc, server.LoopOpts{Observer: ctrl})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Run(func() {
		loop.Start(m, types)
		for !loop.Done() {
			loop.RunBatch()
		}
	}); err != nil {
		t.Fatal(err)
	}
	return ctrl, loop.Report(server.SLO{})
}

// TestDecisionStreamDeterministic: the controller is a deterministic
// function of the (seeded) run, so two identical runs produce
// byte-identical decision logs — the property the CI adapt-smoke job
// checks end to end.
func TestDecisionStreamDeterministic(t *testing.T) {
	c1, r1 := runAdaptiveServer(t, "slo", 42)
	c2, r2 := runAdaptiveServer(t, "slo", 42)
	log1, log2 := c1.DecisionLog(), c2.DecisionLog()
	if log1 == "" {
		t.Fatal("controller made no decisions; the scenario no longer exercises adaptation")
	}
	if log1 != log2 {
		t.Fatalf("decision logs diverge across identical runs:\n--- run 1\n%s--- run 2\n%s", log1, log2)
	}
	if r1.StoreChecksum != r2.StoreChecksum {
		t.Fatalf("store fingerprints diverge: %016x vs %016x", r1.StoreChecksum, r2.StoreChecksum)
	}
}

// TestDifferentSeedsDifferentButValid: a different seed may produce a
// different decision stream, but each run must still be self-consistent
// (summary counts match the log).
func TestSummaryMatchesDecisions(t *testing.T) {
	c, _ := runAdaptiveServer(t, "slo", 7)
	sum := c.Summary()
	if sum.Decisions != len(c.Decisions()) {
		t.Fatalf("summary says %d decisions, log has %d", sum.Decisions, len(c.Decisions()))
	}
}

// noopTuner returns no updates from every consultation.
type noopTuner struct{}

func (noopTuner) Tune(core.TuneInput) []core.KnobUpdate { return nil }

// TestNoopTunerBitIdentical: consulting a tuner that never issues
// updates must leave the measurement bit-identical to a run with no
// tuner at all — the hook observes the clock without advancing it, so
// controller-off runs (and controller-on runs before any decision)
// follow the static cost timeline exactly.
func TestNoopTunerBitIdentical(t *testing.T) {
	bench := workload.Get("jess")
	if bench == nil {
		t.Fatal("jess benchmark missing")
	}
	env := harness.EnvForScale(0.25)
	run := func(tuner core.Tuner) *harness.Result {
		cfg, err := collectors.Parse("25.25", collectors.Options{
			HeapBytes: 2 << 20, FrameBytes: env.FrameBytes})
		if err != nil {
			t.Fatal(err)
		}
		cfg.Policy = tuner
		res, err := harness.RunOne(cfg, bench, env)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	static := run(nil)
	noop := run(noopTuner{})
	if !reflect.DeepEqual(static, noop) {
		t.Fatalf("no-op tuner perturbed the measurement:\nstatic: %+v\nnoop:   %+v", static, noop)
	}
}
