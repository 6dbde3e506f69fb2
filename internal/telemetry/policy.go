package telemetry

import (
	"fmt"
	"math"
)

// Policy metric names (internal/policy adaptive controller). The
// decision counter is fixed; knob-value gauges are registered on first
// sight of each (knob, belt) pair, named "policy_knob_<knob>_belt<N>".
const MetricPolicyDecisions = "policy_decisions_total"

// PolicyObserver feeds a Run's registry and flight recorder with
// adaptive-controller decisions. It satisfies policy.Emitter
// structurally (the policy package defines the interface; neither
// package imports the other). Like every observer it never advances the
// clock: decision emission reads values the controller already computed.
type PolicyObserver struct {
	run       *Run
	decisions *Counter
	knobs     map[string]*Gauge
}

// PolicyObserver lazily registers the policy metric set on the run's
// registry and returns the observer (idempotent per Run).
func (r *Run) PolicyObserver() *PolicyObserver {
	if r.policy == nil {
		r.policy = &PolicyObserver{
			run:       r,
			decisions: r.reg.NewCounter(MetricPolicyDecisions, "adaptive policy decisions made"),
			knobs:     make(map[string]*Gauge),
		}
	}
	return r.policy
}

// Decision records one controller decision (policy.Emitter). Knob and
// reason arrive as their numeric ids; belt is -1 for a marker.
func (o *PolicyObserver) Decision(gcOrdinal uint64, now float64, reason, knob, belt int, value float64) {
	o.decisions.Inc()
	if knob != 0 {
		name := "policy_knob_" + policyKnobName(uint8(knob))
		if belt >= 0 {
			name = fmt.Sprintf("%s_belt%d", name, belt)
		}
		g, ok := o.knobs[name]
		if !ok {
			g = o.run.reg.NewGauge(name, "adaptive policy knob value")
			o.knobs[name] = g
		}
		g.Set(value)
	}
	beltByte := uint64(0)
	if belt >= 0 {
		beltByte = uint64(belt+1) & 0xff
	}
	o.run.rec.Emit(Event{
		Kind: EvPolicy, Time: now, GC: gcOrdinal,
		A: uint64(knob)&0xff | beltByte<<8 | (uint64(reason)&0xff)<<24,
		B: math.Float64bits(value),
	})
}
