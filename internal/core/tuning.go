package core

import (
	"beltway/internal/gc"
	"beltway/internal/stats"
)

// Knob identifies one policy parameter a Tuner may retune at a
// collection boundary. The knobs are exactly the scheduling levers the
// paper exposes as command-line options (§3.3): belt/increment sizing,
// promotion targets, and the nursery/remset/time-to-die triggers.
type Knob uint8

const (
	KnobNone            Knob = iota
	KnobIncrementFrac        // per-belt: BeltSpec.IncrementFrac
	KnobMaxIncrements        // per-belt: BeltSpec.MaxIncrements
	KnobReserveFrac          // per-belt: BeltSpec.ReserveFrac
	KnobPromoteTo            // per-belt: BeltSpec.PromoteTo
	KnobRemsetThreshold      // global: Config.RemsetThreshold
	KnobTTDBytes             // global: Config.TTDBytes
)

func (k Knob) String() string {
	switch k {
	case KnobIncrementFrac:
		return "increment-frac"
	case KnobMaxIncrements:
		return "max-increments"
	case KnobReserveFrac:
		return "reserve-frac"
	case KnobPromoteTo:
		return "promote-to"
	case KnobRemsetThreshold:
		return "remset-threshold"
	case KnobTTDBytes:
		return "ttd-bytes"
	}
	return "none"
}

// KnobUpdate is one requested knob change. Belt indexes the target belt
// for per-belt knobs and is ignored (conventionally -1) for global ones.
// Value carries the new setting; integer knobs truncate it.
type KnobUpdate struct {
	Knob  Knob
	Belt  int
	Value float64
}

// TuneInput is the observation a Tuner receives at each collection
// boundary. Everything is a value copy: tuners never see live collector
// structures, so a buggy tuner can skew policy but not corrupt the heap.
type TuneInput struct {
	GC      uint64         // collection ordinal (1 = first collection)
	Now     float64        // cost-unit clock at the end of the collection
	Trigger gc.TriggerKind // what scheduled this collection
	Full    bool           // condemned set covered the whole collected heap
	End     gc.GCEndInfo   // the collection's GCEnd deltas

	HeapBytes      int // configured heap budget
	ReserveBytes   int // current dynamic copy reserve
	FrameBytes     int
	LiveBytes      int // post-collection belt occupancy (survivors + floating garbage)
	FootprintBytes int // mapped footprint, bytes (heap frames + boot image)

	Belts     []BeltSpec    // current knob values, lowest belt first
	Occupancy []gc.BeltStat // post-collection per-belt occupancy

	RemsetThreshold int
	TTDBytes        int

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
func (h *Heap) runTuner(trigger gc.TriggerKind, full bool, end gc.GCEndInfo) {
	t := h.cfg.Policy
	if t == nil {
		return
	}
	in := TuneInput{
		GC:              h.gcCount,
		Now:             h.clock.Now(),
		Trigger:         trigger,
		Full:            full,
		End:             end,
		HeapBytes:       h.cfg.HeapBytes,
		ReserveBytes:    h.reserveBytes,
		FrameBytes:      h.cfg.FrameBytes,
		LiveBytes:       h.LiveEstimate(),
		FootprintBytes:  h.FootprintBytes(),
		Belts:           append([]BeltSpec(nil), h.cfg.Belts...),
		RemsetThreshold: h.cfg.RemsetThreshold,
		TTDBytes:        h.cfg.TTDBytes,
		OlderFirst:      h.cfg.OlderFirst,
		MOS:             h.cfg.MOS,
		Costs:           h.cfg.Costs,
	}
	for bi := range h.belts {
		in.Occupancy = append(in.Occupancy, h.beltStat(bi))
	}
	h.applyKnobUpdates(t.Tune(in))
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
		switch u.Knob {
		case KnobRemsetThreshold:
			if v := int(u.Value); v >= 0 {
				h.cfg.RemsetThreshold = v
				applied = true
			}
			continue
		case KnobTTDBytes:
			if v := int(u.Value); v >= 0 {
				h.cfg.TTDBytes = v
				applied = true
			}
			continue
		}
		// Per-belt knobs. Under older-first the two belts swap roles at
		// flips and the spec indexes no longer name stable roles; under
		// MOS the top belt's car geometry is load-bearing (Validate pins
		// it). Reject rather than guess.
		if h.cfg.OlderFirst {
			continue
		}
		if u.Belt < 0 || u.Belt >= len(h.belts) {
			continue
		}
		if h.cfg.MOS && u.Belt == h.mosBelt() {
			continue
		}
		spec := &h.cfg.Belts[u.Belt]
		switch u.Knob {
		case KnobIncrementFrac:
			if u.Value > 0 {
				spec.IncrementFrac = u.Value
				touched[u.Belt], applied = true, true
			}
		case KnobMaxIncrements:
			if v := int(u.Value); v >= 0 {
				spec.MaxIncrements = v
				touched[u.Belt], applied = true, true
			}
		case KnobReserveFrac:
			if u.Value >= 0 && u.Value < 1 {
				spec.ReserveFrac = u.Value
				touched[u.Belt], applied = true, true
			}
		case KnobPromoteTo:
			// No demotion (Validate's rule outside older-first), and the
			// top belt keeps promoting to itself.
			if v := int(u.Value); v >= u.Belt && v < len(h.belts) &&
				!(u.Belt == len(h.belts)-1 && v != u.Belt) {
				spec.PromoteTo = v
				h.belts[u.Belt].promoteTo = v
				touched[u.Belt], applied = true, true
			}
		}
		if touched[u.Belt] {
			h.belts[u.Belt].spec = *spec
		}
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
