package telemetry

import "math"

// PolicyObserver feeds a Run's flight recorder with adaptive-controller
// decisions. It satisfies policy.Emitter structurally (the policy
// package defines the interface; neither package imports the other).
// Like every observer it never advances the clock: decision emission
// reads values the controller already computed.
type PolicyObserver struct{ run *Run }

// PolicyObserver returns the run's decision observer.
func (r *Run) PolicyObserver() *PolicyObserver {
	r.policy.run = r
	return &r.policy
}

// Decision records one controller decision (policy.Emitter). Knob and
// reason arrive as their numeric ids; belt is -1 for a marker.
func (o *PolicyObserver) Decision(gcOrdinal uint64, now float64, reason, knob, belt int, value float64) {
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
