package check

import (
	"fmt"
	"sync/atomic"
	"testing"

	"beltway/internal/collectors"
	"beltway/internal/core"
	"beltway/internal/policy"
)

// adaptObjectives are the controller objectives the adaptive oracle
// battery replays under. Adaptation moves scheduling knobs only, so
// every objective must preserve mutator-observable semantics: OOM
// verdicts, allocation-serial streams, and live-graph fingerprints all
// match the static replay of the same trace. The SLO is tight (a
// 2000-unit pause budget) because the oracle's scripts are small: under
// server.DefaultSLO the controller never moves a knob on them, and a
// participant that moves no knob replays exactly as the static one does.
var adaptObjectives = []string{"slo:max=4000"}

// adaptiveConfigs builds one static configuration plus one per
// objective, each with its own fresh controller (controllers are
// stateful and single-run). The static config comes first: RunScript
// records the reference trace on cfgs[0], and the recording run must
// not consume a controller that a replay then reuses.
func adaptiveConfigs(t *testing.T, spec string) []core.Config {
	t.Helper()
	parse := func() core.Config {
		cfg, err := collectors.Parse(spec, collectors.Options{})
		if err != nil {
			t.Fatalf("parse %q: %v", spec, err)
		}
		return cfg
	}
	cfgs := []core.Config{parse()}
	for _, obj := range adaptObjectives {
		pc, err := policy.Parse(obj)
		if err != nil {
			t.Fatalf("policy %q: %v", obj, err)
		}
		cfg := parse()
		cfg.Name = fmt.Sprintf("%s+%s", cfg.Name, obj)
		cfg.Policy = policy.New(pc)
		cfgs = append(cfgs, cfg)
	}
	return cfgs
}

// TestAdaptiveOracle replays every seed script through every preset,
// statically and under each controller objective, and asserts the
// differential oracle finds no divergence: an adaptive run may schedule
// different collections, but the heap it shows the mutator is the same.
// Across the whole battery each objective must move at least one knob,
// or its replays hold nothing the static replay does not.
func TestAdaptiveOracle(t *testing.T) {
	var ran atomic.Int64
	knobs := make([]atomic.Int64, len(adaptObjectives))
	t.Cleanup(func() {
		if t.Failed() || ran.Load() < int64(len(SeedScripts())*len(PresetSpecs)) {
			return // a filtered battery cannot tell
		}
		for i, obj := range adaptObjectives {
			t.Logf("-adapt %s: %d knob decisions", obj, knobs[i].Load())
			if knobs[i].Load() == 0 {
				t.Errorf("-adapt %s moved no knob across the battery", obj)
			}
		}
	})
	for _, seed := range SeedScripts() {
		for _, spec := range PresetSpecs {
			seed, spec := seed, spec
			t.Run(seed.Name+"/"+spec, func(t *testing.T) {
				t.Parallel()
				cfgs := adaptiveConfigs(t, spec)
				run := RunScript(seed.Script, cfgs)
				if run.Failed() {
					t.Fatalf("adaptive divergence:\n%s", run.Report.String())
				}
				for i, cfg := range cfgs[1:] {
					for _, d := range cfg.Policy.(*policy.Controller).Decisions() {
						if d.Knob != core.KnobNone {
							knobs[i].Add(1)
						}
					}
				}
				ran.Add(1)
			})
		}
	}
}
