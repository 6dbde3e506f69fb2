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
// satisfy fail; the result still does. At most 600 predicate
// evaluations (minimizeEvals) are spent, each of which replays the trace
// through every remaining configuration.
func Minimize(script Script, cfgs []core.Config, fail Failing) MinimizeResult {
	m := &minimizer[Script]{fail: fail}
	// Every subsequence of a script is itself runnable (operands are
	// modular), so removal needs no fix-ups.
	script, cfgs = m.reduce(script, cfgs,
		func(s Script) int { return len(s) },
		func(s Script, keep func(int) bool) (Script, bool) {
			candidate := make(Script, 0, len(s))
			for i, op := range s {
				if keep(i) {
					candidate = append(candidate, op)
				}
			}
			return candidate, true
		})
	return MinimizeResult{Script: script, Configs: cfgs, Evals: m.evals}
}

// minimizer shrinks a failing (subject, configs) pair; the subject is a
// Script or a recorded trace, and only how a kept index set becomes a
// candidate subject differs between the two.
type minimizer[S any] struct {
	fail  func(S, []core.Config) bool
	evals int
}

// minimizeEvals bounds a minimizer's predicate evaluations.
const minimizeEvals = 600

func (m *minimizer[S]) check(s S, cfgs []core.Config) bool {
	if m.evals >= minimizeEvals {
		return false
	}
	m.evals++
	return m.fail(s, cfgs)
}

// reduce is the order both minimisers work in: the subject's operations,
// the configuration set, each configuration's structure, the operations
// again. size counts a subject's operations; slice builds the candidate
// that keeps the operations keep selects, or says it cannot be built.
func (m *minimizer[S]) reduce(s S, cfgs []core.Config, size func(S) int,
	slice func(S, func(int) bool) (S, bool)) (S, []core.Config) {
	shrink := func() {
		m.ddmin(size(s), func(keep func(int) bool) bool {
			candidate, ok := slice(s, keep)
			if !ok || !m.check(candidate, cfgs) {
				return false
			}
			s = candidate
			return true
		})
	}
	shrink()
	cfgs = m.shrinkConfigSet(s, cfgs)
	cfgs = m.simplifyConfigs(s, cfgs)
	shrink()
	return s, cfgs
}

// ddmin is the classic delta-debugging loop over the index set [0, size).
// try reports whether the candidate keeping exactly the indexes keep
// selects still fails; when it does the candidate is adopted and its
// operations are renumbered from zero.
func (m *minimizer[S]) ddmin(size int, try func(keep func(int) bool) bool) {
	n := 2
	for size >= 2 {
		chunk := (size + n - 1) / n
		reduced := false
		for start := 0; start < size; start += chunk {
			end := min(start+chunk, size)
			if try(func(i int) bool { return i < start || i >= end }) {
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
	// Final single-op sweep (back to front so indexes stay valid).
	for i := size - 1; i >= 0 && size > 1; i-- {
		if try(func(j int) bool { return j != i }) {
			size--
		}
	}
}

// shrinkConfigSet tries to cut the configuration set down to a single
// config (a self-divergence) or a single diverging pair.
func (m *minimizer[S]) shrinkConfigSet(s S, cfgs []core.Config) []core.Config {
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
func (m *minimizer[S]) simplifyConfigs(s S, cfgs []core.Config) []core.Config {
	transforms := []func(*core.Config){
		func(c *core.Config) { c.TTDBytes = 0 },
		func(c *core.Config) { c.RemsetThreshold = 0 },
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
func MinimizeTrace(tr *trace.Trace, cfgs []core.Config, fail TraceFailing) TraceMinimizeResult {
	numOps := func(tr *trace.Trace) int {
		n, _ := tr.NumOps() // a trace that does not parse has nothing to remove
		return n
	}
	m := &minimizer[*trace.Trace]{fail: fail}
	tr, cfgs = m.reduce(tr, cfgs, numOps,
		func(tr *trace.Trace, keep func(int) bool) (*trace.Trace, bool) {
			candidate, err := tr.Slice(keep)
			return candidate, err == nil
		})
	return TraceMinimizeResult{Trace: tr, Ops: numOps(tr), Configs: cfgs, Evals: m.evals}
}

func cloneConfigs(cfgs []core.Config) []core.Config {
	out := make([]core.Config, len(cfgs))
	for i, c := range cfgs {
		out[i] = c
		out[i].Belts = append([]core.BeltSpec(nil), c.Belts...)
	}
	return out
}
