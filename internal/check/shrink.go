package check

import "beltway/internal/core"

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
// evaluations (minimizeEvals) are spent, each of which runs the script
// through every remaining configuration.
func Minimize(script Script, cfgs []core.Config, fail Failing) MinimizeResult {
	m := &minimizer{fail: fail}
	script = m.ddmin(script, cfgs)
	cfgs = m.shrinkConfigSet(script, cfgs)
	cfgs = m.simplifyConfigs(script, cfgs)
	script = m.ddmin(script, cfgs)
	return MinimizeResult{Script: script, Configs: cfgs, Evals: m.evals}
}

// minimizer shrinks a failing (script, configs) pair.
type minimizer struct {
	fail  Failing
	evals int
}

// minimizeEvals bounds a minimizer's predicate evaluations.
const minimizeEvals = 600

func (m *minimizer) check(s Script, cfgs []core.Config) bool {
	if m.evals >= minimizeEvals {
		return false
	}
	m.evals++
	return m.fail(s, cfgs)
}

// ddmin is the classic delta-debugging loop over s's operations: it
// returns the smallest script it found still failing on cfgs. Every
// subsequence of a script is itself runnable (operands are modular), so
// removal needs no fix-ups.
func (m *minimizer) ddmin(s Script, cfgs []core.Config) Script {
	// try adopts s without the operations [start, end) if that still fails.
	try := func(start, end int) bool {
		candidate := append(s[:start:start], s[end:]...)
		if !m.check(candidate, cfgs) {
			return false
		}
		s = candidate
		return true
	}
	n := 2
	for len(s) >= 2 {
		chunk := (len(s) + n - 1) / n
		reduced := false
		for start := 0; start < len(s); start += chunk {
			if try(start, min(start+chunk, len(s))) {
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
		try(i, i+1)
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

func cloneConfigs(cfgs []core.Config) []core.Config {
	out := make([]core.Config, len(cfgs))
	for i, c := range cfgs {
		out[i] = c
		out[i].Belts = append([]core.BeltSpec(nil), c.Belts...)
	}
	return out
}
