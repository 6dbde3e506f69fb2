package check

import (
	"beltway/internal/core"
	"beltway/internal/trace"
)

// Failing is the shrinker's predicate: does this (script, configs) pair
// still exhibit a failure? The default predicate re-runs the oracle; a
// caller may substitute a stricter one (e.g. "the same divergence
// field") to avoid shrinking onto an unrelated bug.
type Failing func(Script, []core.Config) bool

// OracleFails is the default predicate: the differential oracle reports
// at least one divergence.
func OracleFails(s Script, cfgs []core.Config) bool {
	run := RunScript(s, cfgs)
	return run.Failed()
}

// MinimizeResult carries the shrinker's output and its effort counters.
type MinimizeResult struct {
	Script  Script
	Configs []core.Config
	Evals   int // predicate evaluations spent
}

// Minimize reduces a failing (script, configs) pair deterministically:
// delta-debugging over the script's operations, then structural
// simplification of the configurations (fewer configs, fewer belts,
// zeroed triggers and extensions), then a final op pass, since simpler
// configurations often unlock further op removal. The inputs must
// satisfy fail; the result still does. maxEvals bounds the total number
// of predicate evaluations (each one replays the trace through every
// remaining configuration); <= 0 means a default budget.
func Minimize(script Script, cfgs []core.Config, fail Failing, maxEvals int) MinimizeResult {
	if maxEvals <= 0 {
		maxEvals = 600
	}
	m := &minimizer{fail: fail, budget: maxEvals}
	script = m.ddmin(script, cfgs)
	cfgs = m.shrinkConfigSet(script, cfgs)
	cfgs = m.simplifyConfigs(script, cfgs)
	script = m.ddmin(script, cfgs)
	return MinimizeResult{Script: script, Configs: cfgs, Evals: m.evals}
}

type minimizer struct {
	fail   Failing
	budget int
	evals  int
}

func (m *minimizer) check(s Script, cfgs []core.Config) bool {
	if m.evals >= m.budget {
		return false
	}
	m.evals++
	return m.fail(s, cfgs)
}

// ddmin is the classic delta-debugging loop over script operations.
// Because every subsequence of a script is itself runnable (operands are
// modular), removal needs no fix-ups.
func (m *minimizer) ddmin(s Script, cfgs []core.Config) Script {
	n := 2
	for len(s) >= 2 {
		chunk := (len(s) + n - 1) / n
		reduced := false
		for start := 0; start < len(s); start += chunk {
			end := min(start+chunk, len(s))
			candidate := make(Script, 0, len(s)-(end-start))
			candidate = append(candidate, s[:start]...)
			candidate = append(candidate, s[end:]...)
			if len(candidate) > 0 && m.check(candidate, cfgs) {
				s = candidate
				n = max(n-1, 2)
				reduced = true
				break
			}
		}
		if reduced {
			continue
		}
		if n >= len(s) {
			break
		}
		n = min(2*n, len(s))
	}
	// Final single-op sweep (back to front so indexes stay valid).
	for i := len(s) - 1; i >= 0 && len(s) > 1; i-- {
		candidate := make(Script, 0, len(s)-1)
		candidate = append(candidate, s[:i]...)
		candidate = append(candidate, s[i+1:]...)
		if m.check(candidate, cfgs) {
			s = candidate
		}
	}
	return s
}

// shrinkConfigSet tries to cut the configuration set down to a single
// config (a self-divergence) or a single diverging pair.
func (m *minimizer) shrinkConfigSet(s Script, cfgs []core.Config) []core.Config {
	if len(cfgs) <= 1 {
		return cfgs
	}
	for i := range cfgs {
		one := []core.Config{cfgs[i]}
		if m.check(s, one) {
			return one
		}
	}
	for i := 0; i < len(cfgs); i++ {
		for j := i + 1; j < len(cfgs); j++ {
			pair := []core.Config{cfgs[i], cfgs[j]}
			if m.check(s, pair) {
				return pair
			}
		}
	}
	return cfgs
}

// simplifyConfigs applies structure-reducing transforms to each config
// in turn, keeping a transform only when the failure persists and the
// config stays valid.
func (m *minimizer) simplifyConfigs(s Script, cfgs []core.Config) []core.Config {
	transforms := []func(*core.Config){
		func(c *core.Config) { c.TTDBytes = 0 },
		func(c *core.Config) { c.RemsetThreshold = 0 },
		func(c *core.Config) { c.LOSThresholdBytes = 0 },
		func(c *core.Config) { c.NurseryFilter = false },
		func(c *core.Config) { c.PhysMemBytes = 0 },
		func(c *core.Config) { c.MOS = false },
		func(c *core.Config) {
			c.OlderFirst = false
			for i := range c.Belts {
				if c.Belts[i].PromoteTo < i {
					c.Belts[i].PromoteTo = i
				}
			}
		},
		func(c *core.Config) { c.FixedHalfReserve = false },
		func(c *core.Config) { c.Barrier = core.FrameBarrier },
		func(c *core.Config) { // drop the top belt
			if len(c.Belts) < 2 {
				return
			}
			c.Belts = c.Belts[:len(c.Belts)-1]
			for i := range c.Belts {
				if c.Belts[i].PromoteTo >= len(c.Belts) {
					c.Belts[i].PromoteTo = len(c.Belts) - 1
				}
			}
		},
		func(c *core.Config) {
			for i := range c.Belts {
				c.Belts[i].ReserveFrac = 0
			}
		},
		func(c *core.Config) {
			for i := range c.Belts {
				c.Belts[i].MaxIncrements = 0
			}
		},
	}
	for ci := range cfgs {
		for _, tf := range transforms {
			candidate := cloneConfigs(cfgs)
			tf(&candidate[ci])
			if err := candidate[ci].Validate(); err != nil {
				continue
			}
			if m.check(s, candidate) {
				cfgs = candidate
			}
		}
	}
	return cfgs
}

// TraceFailing is the predicate for trace-level minimization.
type TraceFailing func(*trace.Trace, []core.Config) bool

// DifferentialFails is the default trace predicate: replaying the trace
// through the configurations yields at least one divergence.
func DifferentialFails(tr *trace.Trace, cfgs []core.Config) bool {
	rep := Differential(tr, cfgs)
	return rep.Failed()
}

// TraceMinimizeResult carries the trace shrinker's output.
type TraceMinimizeResult struct {
	Trace   *trace.Trace
	Ops     int
	Configs []core.Config
	Evals   int
}

// MinimizeTrace delta-debugs a failing trace directly at the operation
// level — the path for divergences found on recorded workload traces,
// where no generating script exists. Candidate subsets are rebuilt with
// trace.Slice, which renumbers handles exactly as replay will assign
// them; subsets that are not self-contained (or whose reduction changes
// semantics enough to drift) simply fail the predicate and are skipped.
// Configuration reduction reuses the script shrinker's transforms via a
// predicate adapter.
func MinimizeTrace(tr *trace.Trace, cfgs []core.Config, fail TraceFailing, maxEvals int) TraceMinimizeResult {
	if maxEvals <= 0 {
		maxEvals = 600
	}
	m := &traceMinimizer{fail: fail, budget: maxEvals}
	tr = m.ddmin(tr, cfgs)
	// Reuse the config-set and config-structure reduction by adapting the
	// predicate: the script argument is ignored, the trace is captured.
	sm := &minimizer{budget: maxEvals - m.evals,
		fail: func(_ Script, cs []core.Config) bool { return fail(tr, cs) }}
	cfgs = sm.shrinkConfigSet(nil, cfgs)
	cfgs = sm.simplifyConfigs(nil, cfgs)
	m.evals += sm.evals
	tr = m.ddmin(tr, cfgs)
	n, _ := tr.NumOps()
	return TraceMinimizeResult{Trace: tr, Ops: n, Configs: cfgs, Evals: m.evals}
}

type traceMinimizer struct {
	fail   TraceFailing
	budget int
	evals  int
}

// try slices tr down to the kept index set and evaluates the predicate;
// an invalid slice counts as a non-failure.
func (m *traceMinimizer) try(tr *trace.Trace, keep func(int) bool, cfgs []core.Config) *trace.Trace {
	if m.evals >= m.budget {
		return nil
	}
	cand, err := tr.Slice(keep)
	if err != nil {
		return nil
	}
	m.evals++
	if m.fail(cand, cfgs) {
		return cand
	}
	return nil
}

func (m *traceMinimizer) ddmin(tr *trace.Trace, cfgs []core.Config) *trace.Trace {
	size, err := tr.NumOps()
	if err != nil {
		return tr
	}
	n := 2
	for size >= 2 {
		chunk := (size + n - 1) / n
		reduced := false
		for start := 0; start < size; start += chunk {
			end := min(start+chunk, size)
			if end-start == size {
				continue
			}
			cand := m.try(tr, func(i int) bool { return i < start || i >= end }, cfgs)
			if cand != nil {
				tr = cand
				size -= end - start
				n = max(n-1, 2)
				reduced = true
				break
			}
		}
		if reduced {
			continue
		}
		if n >= size {
			break
		}
		n = min(2*n, size)
	}
	// Final single-op sweep, back to front.
	for i := size - 1; i >= 0 && size > 1; i-- {
		cand := m.try(tr, func(j int) bool { return j != i }, cfgs)
		if cand != nil {
			tr = cand
			size--
		}
	}
	return tr
}

func cloneConfigs(cfgs []core.Config) []core.Config {
	out := make([]core.Config, len(cfgs))
	for i, c := range cfgs {
		out[i] = c
		out[i].Belts = append([]core.BeltSpec(nil), c.Belts...)
	}
	return out
}
