package harness

import (
	"fmt"

	"beltway/internal/policy"
)

// ValidateEnv checks an Env for values and feature combinations a run
// rejects (a scale or frame size no heap can have, -adapt with more than
// one lane), so front ends can fail at flag-parse time instead of
// rendering every sweep point as a failed measurement. The frame size
// follows -scale on every front end, but an Env read back from a farm
// spec or ledger may carry any. Run makes the same check, here and
// nowhere else.
func ValidateEnv(env Env) error {
	_, err := envController(env)
	return err
}

// envController validates env and builds the adaptive controller it
// declares (nil when Env.Policy is empty). Controllers are stateful and
// per-run: every Run gets a fresh one.
//
// An adaptive controller stays single-lane: it tunes one heap, and N
// lanes would tune N heaps independently, which is a different (and
// unimplemented) design.
func envController(env Env) (*policy.Controller, error) {
	if !(env.Scale > 0) {
		return nil, fmt.Errorf("harness: -scale must be positive (got %v)", env.Scale)
	}
	// The frame rule is core's: the smallest heap core accepts is four
	// frames, so a configuration at that size fails on the frame alone.
	cfg := AppelConfig(env)(4 * env.FrameBytes)
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("harness: Env.FrameBytes: %w", err)
	}
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
	return ctrl, nil
}
