package check

import (
	"fmt"

	"beltway/internal/core"
	"beltway/internal/resilience"
)

// Chaos mode: the differential oracle under deterministic fault
// injection. The resilience layer's contract is that every injected
// fault is either absorbed (a vetoed frame map reads as heap-full and a
// collection clears it; a vetoed reserve grant is retried; a dropped
// remembered-set insert flips the heap into condemn-everything mode) or
// surfaces as a structured OOM — it must never change mutator-observable
// semantics. Chaos mode checks that mechanically: execute each seed
// script once fault-free per configuration, then re-execute it under N
// fault schedules and assert the live graph, the allocation-serial
// stream, and the OOM verdict are unchanged by when the faults fire.

// ChaosRun is the verdict of one script's chaos battery: Outcomes holds
// the fault-free baselines, Divergences what any round did to them.
type ChaosRun struct {
	Report
	Script string
	// Rounds counts (configuration, schedule) executions performed,
	// baselines excluded.
	Rounds int
	// TotalFired is the number of faults that actually fired across all
	// rounds; a battery where nothing fired tested nothing.
	TotalFired int
}

// RunScriptChaos runs the chaos battery for one script: per
// configuration a fault-free baseline, then `schedules` deterministic
// fault schedules derived from faultSeed, each executed with a fresh
// injector. Every configuration runs with the degradation ladder on —
// chaos asserts the ladder's absorption is semantics-preserving, and
// without it the first vetoed reserve grant would legitimately change
// the OOM verdict. Configurations whose baseline fails outright are
// reported once and excluded from fault rounds (the plain oracle owns
// that failure).
func RunScriptChaos(name string, script Script, cfgs []core.Config, faultSeed int64, schedules int) ChaosRun {
	cr := ChaosRun{Script: name}
	horizon := max(2*len(script), 512)

	sized := Sized(cfgs, HeapBytesFor(script.AllocBytes()))
	for i := range sized {
		sized[i].Degrade = true
		sized[i].Faults = nil
		base := run(sized[i], execute(script))
		cr.Outcomes = append(cr.Outcomes, base)
		if base.Err != "" {
			cr.Divergences = append(cr.Divergences, Divergence{
				A: base.Name, Field: "replay", Detail: "chaos baseline: " + base.Err})
		}
	}

	for si := 0; si < schedules; si++ {
		// Schedule si's seed derives from the battery's; the large odd
		// stride keeps neighboring batteries' schedules disjoint.
		sched := resilience.NewSchedule(faultSeed+int64(si)*1000003, horizon)
		for i, cfg := range sized {
			if cr.Outcomes[i].Err != "" {
				continue
			}
			inj := resilience.NewInjector(sched)
			cfg.Faults = inj.Hooks()
			out := run(cfg, execute(script))
			cr.Rounds++
			cr.TotalFired += inj.TotalFired()
			cr.Divergences = append(cr.Divergences, chaosVerdict(cr.Outcomes[i], out, si)...)
		}
	}
	return cr
}

// chaosVerdict holds a faulted outcome, named for its schedule, to its
// fault-free baseline.
func chaosVerdict(baseline, faulted Outcome, schedIdx int) []Divergence {
	faulted.Name = fmt.Sprintf("%s+faults[%d]", faulted.Name, schedIdx)
	return compare(baseline, faulted, "OOM=%v fault-free vs OOM=%v under faults")
}
