package harness

import (
	"fmt"

	"beltway/internal/policy"
)

// ValidateEnv checks an Env for feature combinations a run rejects, so
// front ends can fail at flag-parse time instead of rendering every
// sweep point as a failed measurement. Run makes the same check, here
// and nowhere else.
func ValidateEnv(env Env) error {
	_, err := envController(env)
	return err
}

// envController validates env and builds the adaptive controller it
// declares (nil when Env.Policy is empty). Controllers are stateful and
// per-run: every Run gets a fresh one.
//
// Two features stay single-lane. An adaptive controller tunes one heap;
// N lanes would tune N heaps independently, which is a different (and
// unimplemented) design. The fault injector threads one stateful
// schedule through the hooks of every heap that shares the config;
// across concurrent lanes that is a data race, not a deterministic
// chaos run.
func envController(env Env) (*policy.Controller, error) {
	if env.Mutators < 0 {
		return nil, fmt.Errorf("harness: -mutators must be at least 1 (got %d)", env.Mutators)
	}
	var ctrl *policy.Controller
	if env.Policy != "" {
		pc, err := policy.Parse(env.Policy)
		if err != nil {
			return nil, fmt.Errorf("harness: -adapt: %w", err)
		}
		ctrl = policy.New(pc)
	}
	if env.Mutators > 1 && env.Policy != "" {
		return nil, fmt.Errorf("harness: adaptive policy (-adapt) is single-mutator only: incompatible with the sharded runtime (-mutators %d)", env.Mutators)
	}
	if env.Mutators > 1 && env.FaultSeed != 0 {
		return nil, fmt.Errorf("harness: fault injection (-fault-seed) is single-mutator only: incompatible with the sharded runtime (-mutators %d)", env.Mutators)
	}
	return ctrl, nil
}
