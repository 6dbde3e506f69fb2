package check

import (
	"errors"
	"fmt"

	"beltway/internal/core"
	"beltway/internal/gc"
	"beltway/internal/heap"
	"beltway/internal/resilience"
	"beltway/internal/vm"
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

// RunScriptDirect executes the script on one configuration under the
// shadow validator and returns the semantic outcome. Unlike the
// record/replay path it executes the full script even past mid-script
// collections triggered by injected faults, and an OOM yields the
// serial stream actually produced rather than a truncated trace — which
// is what both chaos comparison and the degradation fixtures need.
func RunScriptDirect(script Script, cfg core.Config) (out Outcome) {
	out.Name = cfg.Name
	defer func() {
		if r := recover(); r != nil {
			out.Err = fmt.Sprintf("panic: %v", r)
		}
	}()
	h, err := core.New(cfg, heap.NewRegistry())
	if err != nil {
		out.Err = "config: " + err.Error()
		return out
	}
	m := vm.New(h)
	v := m.EnableValidation()
	watchInvariants(h)
	tap := &serialTap{m: m}
	m.SetRecorder(tap)
	err = m.Run(func() { Execute(script, m) })
	out.Serials = tap.serials
	out.Collections = h.Collections()
	if err != nil {
		if errors.Is(err, gc.ErrOutOfMemory) {
			out.OOM = true
			return out
		}
		out.Err = err.Error()
		return out
	}
	if cerr := v.Check(); cerr != nil {
		out.Err = "validator: " + cerr.Error()
		return out
	}
	out.Fingerprint = v.LiveFingerprint()
	return out
}

// ChaosRun is the verdict of one script's chaos battery.
type ChaosRun struct {
	Script    string
	Schedules int
	// Rounds counts (configuration, schedule) executions performed,
	// baselines excluded.
	Rounds int
	// TotalFired is the number of faults that actually fired across all
	// rounds; a battery where nothing fired tested nothing.
	TotalFired  int
	Divergences []Divergence
}

// Failed reports whether any round diverged from its baseline.
func (c *ChaosRun) Failed() bool { return len(c.Divergences) > 0 }

func (c *ChaosRun) String() string {
	out := ""
	for _, d := range c.Divergences {
		out += d.String() + "\n"
	}
	return out
}

// chaosScheduleSeed derives the seed of schedule si from the battery
// seed; the large odd stride keeps neighboring batteries' schedules
// disjoint.
func chaosScheduleSeed(faultSeed int64, si int) int64 {
	return faultSeed + int64(si)*1000003
}

// RunScriptChaos runs the chaos battery for one script: per
// configuration a fault-free baseline, then `schedules` deterministic
// fault schedules derived from faultSeed, each replayed with a fresh
// injector. Every configuration runs with the degradation ladder on —
// chaos asserts the ladder's absorption is semantics-preserving, and
// without it the first vetoed reserve grant would legitimately change
// the OOM verdict. Configurations whose baseline fails outright are
// reported once and excluded from fault rounds (the plain oracle owns
// that failure).
func RunScriptChaos(name string, script Script, cfgs []core.Config, faultSeed int64, schedules int) ChaosRun {
	run := ChaosRun{Script: name, Schedules: schedules}
	heapBytes := HeapBytesFor(script, OracleFrameBytes)
	horizon := 2 * len(script)
	if horizon < 512 {
		horizon = 512
	}

	type base struct {
		cfg Outcome
		ok  bool
	}
	sized := make([]core.Config, len(cfgs))
	baselines := make([]base, len(cfgs))
	for i, cfg := range cfgs {
		cfg.HeapBytes = heapBytes
		cfg.FrameBytes = OracleFrameBytes
		cfg.PhysMemBytes = 0
		cfg.Degrade = true
		cfg.Faults = nil
		sized[i] = cfg
		out := RunScriptDirect(script, cfg)
		if out.Err != "" {
			run.Divergences = append(run.Divergences, Divergence{
				A: cfg.Name, Field: "replay", Detail: "chaos baseline: " + out.Err})
			continue
		}
		baselines[i] = base{cfg: out, ok: true}
	}

	for si := 0; si < schedules; si++ {
		sched := resilience.NewSchedule(chaosScheduleSeed(faultSeed, si), horizon)
		for i, cfg := range sized {
			if !baselines[i].ok {
				continue
			}
			inj := resilience.NewInjector(sched)
			cfg.Faults = inj.Hooks()
			out := RunScriptDirect(script, cfg)
			run.Rounds++
			run.TotalFired += inj.TotalFired()
			run.Divergences = append(run.Divergences,
				chaosCompare(baselines[i].cfg, out, si)...)
		}
	}
	return run
}

// chaosCompare checks a faulted outcome against its fault-free baseline:
// same OOM verdict, no new failure, identical serial stream (prefix rule
// when a run OOMed), identical live graph when both completed.
func chaosCompare(baseline, faulted Outcome, schedIdx int) []Divergence {
	tag := fmt.Sprintf("%s+faults[%d]", faulted.Name, schedIdx)
	if faulted.Err != "" {
		return []Divergence{{A: tag, Field: "replay", Detail: faulted.Err}}
	}
	var divs []Divergence
	if baseline.OOM != faulted.OOM {
		divs = append(divs, Divergence{A: baseline.Name, B: tag, Field: "oom",
			Detail: fmt.Sprintf("OOM=%v fault-free vs OOM=%v under faults", baseline.OOM, faulted.OOM)})
	}
	if d := diffSerials(baseline, faulted); d != "" {
		divs = append(divs, Divergence{A: baseline.Name, B: tag, Field: "serials", Detail: d})
	}
	if !baseline.OOM && !faulted.OOM && baseline.Fingerprint != faulted.Fingerprint {
		divs = append(divs, Divergence{A: baseline.Name, B: tag, Field: "graph",
			Detail: diffLines(baseline.Fingerprint, faulted.Fingerprint)})
	}
	return divs
}
