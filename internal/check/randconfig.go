package check

import (
	"fmt"
	"math/rand"

	"beltway/internal/core"
)

// RandomConfig generates a random legal Beltway configuration over the
// given heap geometry: 1-4 belts, random increment fractions, bounded or
// unbounded nurseries, random upward promotion edges, random barrier,
// random trigger and extension settings. The differential oracle and the
// core framework fuzz test share it: the paper's claim is that ANY legal
// belt structure is a correct collector, so the generator deliberately
// wanders far outside the named presets.
func RandomConfig(rng *rand.Rand, heapBytes, frameBytes int) core.Config {
	nBelts := 1 + rng.Intn(4)
	cfg := core.Config{
		HeapBytes:  heapBytes,
		FrameBytes: frameBytes,
	}
	for i := 0; i < nBelts; i++ {
		spec := core.BeltSpec{PromoteTo: i}
		if i < nBelts-1 {
			spec.PromoteTo = i + 1 + rng.Intn(nBelts-i-1)
		}
		switch rng.Intn(3) {
		case 0:
			spec.IncrementFrac = 1.0
		case 1:
			spec.IncrementFrac = 0.1 + 0.4*rng.Float64()
		default:
			spec.IncrementFrac = 0.2 + 0.6*rng.Float64()
		}
		// The nursery trigger belongs to a nursery that promotes
		// elsewhere. A lone self-promoting belt held to one bounded
		// increment can never hold more live data than that increment,
		// on either substrate, so its OOM (eight frame-sized live arrays
		// were enough) is policy, not a bug, and would break the
		// completion guarantee HeapBytesFor gives the oracle.
		if i == 0 && nBelts > 1 && rng.Intn(2) == 0 {
			spec.MaxIncrements = 1
		}
		cfg.Belts = append(cfg.Belts, spec)
	}
	switch rng.Intn(3) {
	case 0:
		cfg.Barrier = core.FrameBarrier
	case 1:
		cfg.Barrier = core.BoundaryBarrier
	default:
		cfg.Barrier = core.CardBarrier
	}
	if cfg.Barrier == core.FrameBarrier && rng.Intn(2) == 0 {
		cfg.NurseryFilter = true
	}
	// The two triggers are rolled at values the oracle's scripts reach in
	// the heap HeapBytesFor gives them (DESIGN.md §6;
	// TestRandomConfigRollsFire): a time-to-die window of the 64 frames of
	// slack — every seed script enters that and none enters 16 — and a
	// remembered-set threshold the throttled poll can find (over six seeds
	// 1 fired in 13 of 100 random configurations, 2 in 5 of 135, 3 and 4
	// in none of 212).
	if rng.Intn(3) == 0 {
		cfg.TTDBytes = 64 * frameBytes
	}
	if rng.Intn(4) == 0 {
		cfg.RemsetThreshold = 1 + rng.Intn(2)
	}
	// MOS when the top belt qualifies.
	last := nBelts - 1
	if nBelts >= 2 && cfg.Barrier == core.FrameBarrier &&
		cfg.Belts[last].IncrementFrac < 1 && rng.Intn(3) == 0 {
		cfg.MOS = true
	}
	// Older-first (BOF) for two-belt windowed configs.
	if nBelts == 2 && !cfg.MOS && rng.Intn(5) == 0 {
		cfg.OlderFirst = true
		cfg.Belts[0] = core.BeltSpec{IncrementFrac: 0.15 + 0.3*rng.Float64(), PromoteTo: 1}
		cfg.Belts[1] = core.BeltSpec{IncrementFrac: cfg.Belts[0].IncrementFrac, PromoteTo: 0}
		cfg.TTDBytes = 0
	}
	// Mark-region substrate on a random suffix of the belts (the mature
	// end, where in-place marking pays), when the combination is legal:
	// the engine forbids mixing mark-region with cards, MOS and
	// older-first (core.Config.Validate).
	mrTag := ""
	if cfg.Barrier != core.CardBarrier && !cfg.MOS && !cfg.OlderFirst && rng.Intn(3) == 0 {
		for i := rng.Intn(nBelts); i < nBelts; i++ {
			cfg.Belts[i].Substrate = core.MarkRegion
		}
		cfg.MRDefragFrac = 0.15 + 0.5*rng.Float64()
		if rng.Intn(2) == 0 {
			cfg.MRLineBytes = 64 << rng.Intn(2)
		}
		mrTag = "-mr"
	}
	cfg.Name = fmt.Sprintf("rand-%d-belts-%s%s", nBelts, cfg.Barrier, mrTag)
	return cfg
}

// FuzzBattery is the battery FuzzDifferential runs a script against, and
// the one fuzzcheck replays a corpus entry on: two anchors, presets[0]
// (semi-space) and presets[1] (Appel, the generational baseline with the
// boundary barrier), then two RandomConfig draws from cfgSeed at the
// script's oracle heap size. Four configurations trade breadth per exec
// for execs.
func FuzzBattery(presets []core.Config, script Script, cfgSeed int64) []core.Config {
	cfgs := []core.Config{presets[0], presets[1]}
	rng := rand.New(rand.NewSource(cfgSeed))
	heapBytes := HeapBytesFor(script.AllocBytes())
	for i := 0; i < 2; i++ {
		cfgs = append(cfgs, RandomConfig(rng, heapBytes, OracleFrameBytes))
	}
	return cfgs
}
