package core

import (
	"beltway/internal/gc"
	"beltway/internal/stats"
)

// Knob identifies one policy parameter a Tuner may retune at a
// collection boundary: the two per-belt sizing levers of the paper's
// command line (§3.3) that the controller in internal/policy turns. The
// values are the EvPolicy wire format (internal/telemetry names them by
// number), so a retired knob's number is not reused.
type Knob uint8

const (
	KnobNone          Knob = 0
	KnobIncrementFrac Knob = 1 // BeltSpec.IncrementFrac
	KnobReserveFrac   Knob = 3 // BeltSpec.ReserveFrac
)

func (k Knob) String() string {
	switch k {
	case KnobIncrementFrac:
		return "increment-frac"
	case KnobReserveFrac:
		return "reserve-frac"
	}
	return "none"
}

// KnobUpdate is one requested knob change: the knob of belt Belt is set
// to Value.
type KnobUpdate struct {
	Knob  Knob
	Belt  int
	Value float64
}

// TuneInput is the observation a Tuner receives at each collection
// boundary. Everything is a value copy: tuners never see live collector
// structures, so a buggy tuner can skew policy but not corrupt the heap.
type TuneInput struct {
	GC   uint64       // collection ordinal (1 = first collection)
	Now  float64      // cost-unit clock at the end of the collection
	Full bool         // condemned set covered the whole collected heap
	End  gc.GCEndInfo // the collection's GCEnd deltas

	HeapBytes    int // configured heap budget
	ReserveBytes int // current dynamic copy reserve
	LiveBytes    int // post-collection belt occupancy (survivors + floating garbage)

	Belts []BeltSpec // current knob values, lowest belt first

	OlderFirst bool
	MOS        bool

	Costs stats.CostModel
}

// Tuner is the adaptive-policy hook point: Config.Policy, when non-nil,
// is consulted at the end of every collection and may retune scheduling
// knobs for the rest of the run. Implementations must be deterministic
// functions of their inputs (no wall-clock, no ambient randomness) so
// adaptive runs replay bit-identically from a seed; internal/policy
// provides the objective-driven controller. A nil Policy — the default —
// costs one pointer test per collection and leaves behavior bit-identical
// to a build without the hook.
type Tuner interface {
	Tune(TuneInput) []KnobUpdate
}

// runTuner consults cfg.Policy at the end of a collection and applies
// whatever updates pass validation. Called with the heap consistent
// (inGC already cleared) but still inside the pause window; tuner
// decisions are policy work, not collector work, and charge no cost.
func (h *Heap) runTuner(full bool, end gc.GCEndInfo) {
	t := h.cfg.Policy
	if t == nil {
		return
	}
	h.applyKnobUpdates(t.Tune(TuneInput{
		GC:           h.gcCount,
		Now:          h.clock.Now(),
		Full:         full,
		End:          end,
		HeapBytes:    h.cfg.HeapBytes,
		ReserveBytes: h.reserveBytes,
		LiveBytes:    h.LiveEstimate(),
		Belts:        append([]BeltSpec(nil), h.cfg.Belts...),
		OlderFirst:   h.cfg.OlderFirst,
		MOS:          h.cfg.MOS,
		Costs:        h.cfg.Costs,
	}))
}

// applyKnobUpdates validates and applies tuner decisions, then refreshes
// the structures derived from the knobs (copy reserve, open-increment
// frame budgets). Invalid updates are dropped silently: the tuner layer
// (internal/policy) never emits them, and policy must not be able to
// crash or corrupt a run.
func (h *Heap) applyKnobUpdates(updates []KnobUpdate) {
	if len(updates) == 0 {
		return
	}
	h.closeWindow()
	touched := make([]bool, len(h.belts))
	applied := false
	for _, u := range updates {
		// Under older-first the two belts swap roles at flips and the
		// spec indexes no longer name stable roles; under MOS the top
		// belt's car geometry is load-bearing (Validate pins it). Reject
		// rather than guess.
		if h.cfg.OlderFirst || u.Belt < 0 || u.Belt >= len(h.belts) ||
			(h.cfg.MOS && u.Belt == h.mosBelt()) {
			continue
		}
		spec := &h.cfg.Belts[u.Belt]
		switch {
		case u.Knob == KnobIncrementFrac && u.Value > 0:
			spec.IncrementFrac = u.Value
		case u.Knob == KnobReserveFrac && u.Value >= 0 && u.Value < 1:
			spec.ReserveFrac = u.Value
		default:
			continue
		}
		h.belts[u.Belt].spec = *spec
		touched[u.Belt], applied = true, true
	}
	if !applied {
		return
	}
	// The reserve depends on increment fractions and occupancy; refresh
	// it first, then re-budget the open increments against the new usable
	// memory.
	h.recomputeReserve()
	for bi, was := range touched {
		if was {
			h.recapOpenIncrement(bi)
		}
	}
}

// recapOpenIncrement re-derives the frame budget of a belt's open (back
// of queue) increment after its IncrementFrac changed. Frames already
// held are never taken away — a shrink only stops further growth — and
// MOS cars keep their car geometry.
func (h *Heap) recapOpenIncrement(beltIdx int) {
	b := h.belts[beltIdx]
	in := b.Youngest()
	if in == nil || in.train >= 0 || in.condemned {
		return
	}
	in.capFrames = h.frameBudget(b)
	if in.capFrames > 0 && in.capFrames < len(in.frames) {
		in.capFrames = len(in.frames)
	}
}
