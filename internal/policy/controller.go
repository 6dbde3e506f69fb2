package policy

import (
	"fmt"
	"math"
	"strings"

	"beltway/internal/core"
)

// Decision is one controller action: at collection GC (cost-unit time
// Time), for Reason, knob Knob of belt Belt was set to Value. Marker
// decisions (e.g. phase boundaries) carry KnobNone and change nothing.
type Decision struct {
	GC     uint64    `json:"gc"`
	Time   float64   `json:"t"`
	Reason Reason    `json:"reason"`
	Knob   core.Knob `json:"knob"`
	Belt   int       `json:"belt"`
	Value  float64   `json:"value"`
}

// Emitter receives every controller decision as it is made (telemetry
// wiring; see telemetry.PolicyObserver, which implements this
// structurally so neither package imports the other). Implementations
// must not advance the clock.
type Emitter interface {
	Decision(gcOrdinal uint64, now float64, reason, knob, belt int, value float64)
}

// Controller is the objective-driven core.Tuner (and, for server runs,
// server.Observer). One Controller drives one run: it is stateful and
// must not be shared or reused across heaps.
type Controller struct {
	emit Emitter

	// pauseBudget is the SLO-implied bound on a single pause: half the
	// tightest of the SLO's max/p999 bounds (those bound pause magnitude;
	// p50/p95/p99 bound pause frequency, which growing the nursery does
	// not help). +Inf when the SLO has no magnitude bound.
	pauseBudget float64

	initial []core.BeltSpec // knob values at the first collection
	cur     []core.BeltSpec // knob values after the latest decisions

	grown  bool // a grow-type decision is in effect
	burned bool // growth was reverted; never grow again this run

	phase      int  // last observed server phase (-1 before any request)
	phaseShift bool // a phase boundary occurred since the last Tune

	decisions []Decision
}

// New builds a controller for one run.
func New(cfg Config) *Controller {
	c := &Controller{pauseBudget: math.Inf(1), phase: -1}
	for _, t := range cfg.SLO.Targets {
		if t.Quantile == "max" || t.Quantile == "p999" {
			if b := 0.5 * t.Cost; b < c.pauseBudget {
				c.pauseBudget = b
			}
		}
	}
	return c
}

// SetEmitter wires decision telemetry; nil disables it.
func (c *Controller) SetEmitter(e Emitter) { c.emit = e }

// Request implements server.Observer: the controller watches the request
// stream only for phase boundaries, which the next Tune records as
// ReasonPhaseShift markers. It never advances the clock.
func (c *Controller) Request(kind, phase, key int, start, latency, pauseCost float64) {
	if phase != c.phase {
		if c.phase >= 0 {
			c.phaseShift = true
		}
		c.phase = phase
	}
}

// Tune implements core.Tuner.
func (c *Controller) Tune(in core.TuneInput) []core.KnobUpdate {
	if c.initial == nil {
		c.initial = append([]core.BeltSpec(nil), in.Belts...)
	}
	c.cur = in.Belts

	if c.phaseShift {
		c.phaseShift = false
		c.note(in, ReasonPhaseShift, core.KnobNone, -1, float64(c.phase))
	}

	ups := c.tuneSLO(in)
	// Mirror the updates into the tracked knob state so Drift reflects
	// decisions made this very collection.
	for _, u := range ups {
		if u.Belt < 0 || u.Belt >= len(c.cur) {
			continue
		}
		switch u.Knob {
		case core.KnobIncrementFrac:
			c.cur[u.Belt].IncrementFrac = u.Value
		case core.KnobReserveFrac:
			c.cur[u.Belt].ReserveFrac = u.Value
		}
	}
	return ups
}

// tuneSLO bounds pause magnitude under the SLO's max/p999 bounds. The
// lever is the one the paper's own data motivates: Figure 6 shows fixed
// small nurseries promote prematurely, inflating the copy volume — and
// hence the pause — of the eventual full collection; Appel's
// all-of-usable-memory nursery avoids it. When a pause exceeds the
// budget (or the cost model predicts the next full collection will:
// live*CopyByte + GCSetup), the controller reshapes the nursery belt to
// Appel's — IncrementFrac 1, no permanent reservation — provided there
// is headroom. If live data later squeezes usable memory, the growth is
// reverted once and for all: a controller must never turn a
// statically-surviving run into an OOM.
func (c *Controller) tuneSLO(in core.TuneInput) []core.KnobUpdate {
	if c.grown && !c.burned {
		if occupancySqueezed(in) {
			return c.revert(in)
		}
		return nil
	}
	if c.grown || c.burned || math.IsInf(c.pauseBudget, 1) {
		return nil
	}
	predicted := in.Costs.GCSetup + float64(in.LiveBytes)*in.Costs.CopyByte
	if in.End.Duration <= c.pauseBudget && predicted <= c.pauseBudget {
		return nil
	}
	if !growable(in) || float64(in.LiveBytes) > 0.6*float64(in.HeapBytes/2) {
		return nil
	}
	var ups []core.KnobUpdate
	if in.Belts[0].IncrementFrac < 1.0 {
		ups = append(ups, c.decide(in, ReasonPauseOverBudget, core.KnobIncrementFrac, 0, 1.0))
	}
	if in.Belts[0].ReserveFrac > 0 {
		ups = append(ups, c.decide(in, ReasonPauseOverBudget, core.KnobReserveFrac, 0, 0))
	}
	if len(ups) > 0 {
		c.grown = true
	}
	return ups
}

// growable reports whether the nursery-growth lever exists for this
// configuration: a copying belt 0 below Appel shape, with an older belt
// to promote into, outside older-first/MOS (whose belt roles are
// load-bearing). Mark-region belts have no lever here — a renewed
// increment keeps its frames, so growth would not change the condemned
// set shape.
func growable(in core.TuneInput) bool {
	if in.OlderFirst || in.MOS || len(in.Belts) < 2 {
		return false
	}
	b0 := in.Belts[0]
	if b0.Substrate != core.Copying {
		return false
	}
	return b0.IncrementFrac < 1.0 || b0.ReserveFrac > 0
}

// occupancySqueezed reports whether live data is crowding usable memory
// badly enough that a grow-type decision must be undone. LiveBytes is
// post-collection occupancy, which between full collections includes the
// floating garbage of uncollected belts — an overestimate that would
// trip the guard spuriously — so the check only counts right after a
// full collection, when occupancy approximates true live data.
func occupancySqueezed(in core.TuneInput) bool {
	return in.Full && float64(in.LiveBytes) > 0.75*float64(in.HeapBytes-in.ReserveBytes)
}

// revert restores every knob to its initial value and retires the
// controller's grow lever for the rest of the run.
func (c *Controller) revert(in core.TuneInput) []core.KnobUpdate {
	var ups []core.KnobUpdate
	for i := range c.initial {
		if i >= len(in.Belts) {
			break
		}
		if in.Belts[i].IncrementFrac != c.initial[i].IncrementFrac {
			ups = append(ups, c.decide(in, ReasonOccupancyRevert, core.KnobIncrementFrac, i, c.initial[i].IncrementFrac))
		}
		if in.Belts[i].ReserveFrac != c.initial[i].ReserveFrac {
			ups = append(ups, c.decide(in, ReasonOccupancyRevert, core.KnobReserveFrac, i, c.initial[i].ReserveFrac))
		}
	}
	c.grown, c.burned = false, true
	return ups
}

// decide records a decision and returns its knob update.
func (c *Controller) decide(in core.TuneInput, why Reason, k core.Knob, belt int, v float64) core.KnobUpdate {
	c.note(in, why, k, belt, v)
	return core.KnobUpdate{Knob: k, Belt: belt, Value: v}
}

// note records a (possibly marker) decision and emits it to telemetry.
func (c *Controller) note(in core.TuneInput, why Reason, k core.Knob, belt int, v float64) {
	c.decisions = append(c.decisions, Decision{
		GC: in.GC, Time: in.Now, Reason: why, Knob: k, Belt: belt, Value: v,
	})
	if c.emit != nil {
		c.emit.Decision(in.GC, in.Now, int(why), int(k), belt, v)
	}
}

// Decisions returns a copy of the decision log.
func (c *Controller) Decisions() []Decision {
	return append([]Decision(nil), c.decisions...)
}

// DecisionLog renders the decision log one line per decision — the
// determinism tests compare these byte-for-byte across replays.
func (c *Controller) DecisionLog() string {
	var b strings.Builder
	for _, d := range c.decisions {
		fmt.Fprintf(&b, "gc=%d t=%.0f reason=%s knob=%s belt=%d value=%g\n",
			d.GC, d.Time, d.Reason, d.Knob, d.Belt, d.Value)
	}
	return b.String()
}

// Drift summarizes the net knob movement ("b0.frac 0.25->1"), empty when
// nothing moved.
func (c *Controller) Drift() string {
	if c.initial == nil || c.cur == nil {
		return ""
	}
	var parts []string
	for i := range c.initial {
		if i >= len(c.cur) {
			break
		}
		if c.cur[i].IncrementFrac != c.initial[i].IncrementFrac {
			parts = append(parts, fmt.Sprintf("b%d.frac %g->%g", i, c.initial[i].IncrementFrac, c.cur[i].IncrementFrac))
		}
		if c.cur[i].ReserveFrac != c.initial[i].ReserveFrac {
			parts = append(parts, fmt.Sprintf("b%d.reserve %g->%g", i, c.initial[i].ReserveFrac, c.cur[i].ReserveFrac))
		}
	}
	return strings.Join(parts, " ")
}

// Summary is the JSON-able digest attached to harness results.
type Summary struct {
	Decisions int    `json:"decisions"`
	Drift     string `json:"drift,omitempty"`
}

// Summary digests the controller's run for results tables and JSON.
func (c *Controller) Summary() *Summary {
	return &Summary{
		Decisions: len(c.decisions),
		Drift:     c.Drift(),
	}
}
