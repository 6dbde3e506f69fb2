// Package collectors provides the named Beltway configurations from the
// paper (§3.1, §3.2) plus the generational baselines, and a command-line
// parser mirroring how the paper's collectors were "selected by command
// line options".
//
// Increment sizes are conventionally expressed as percentages of usable
// memory, e.g. "25.25.100" is a three-belt collector whose two lower
// belts have increments of 25% and whose third belt has one increment
// that may grow to all usable memory.
package collectors

import (
	"fmt"
	"strconv"

	"beltway/internal/core"
)

// Options is the preset parameter set: heap, frame and physical memory
// sizes, which every preset applies to its configuration (core.Options).
type Options = core.Options

// BSS is Beltway Semi-Space (Figure 3(a)): one belt, one increment as
// large as usable memory, survivors copied to a new increment on the
// same belt.
func BSS(o Options) core.Config {
	c := core.Config{
		Name: "BSS",
		Belts: []core.BeltSpec{
			{IncrementFrac: 1.0, PromoteTo: 0},
		},
	}
	o.Apply(&c)
	return c
}

// BA2 is Beltway Appel with two generations (Figure 3(b)): two belts,
// each one unbounded increment; the nursery grows into all memory not
// consumed by the higher belt. It is "Beltway 100.100".
func BA2(o Options) core.Config {
	c := XX(100, o)
	c.Name = "Beltway 100.100"
	return c
}

// BOFM is Beltway Older-First Mix (Figure 3(c)): a single belt of
// fixed-size increments; both allocation and survivors go to the last
// increment, mixing copies with new objects.
func BOFM(incrPercent int, o Options) core.Config {
	c := core.Config{
		Name: name("BOFM ", "", incrPercent),
		Belts: []core.BeltSpec{
			{IncrementFrac: frac(incrPercent), PromoteTo: 0},
		},
	}
	o.Apply(&c)
	return c
}

// BOF is Beltway Older-First (Figure 3(d)): an allocation belt A and a
// copy belt C with window-sized increments; when A empties the belts
// flip.
func BOF(windowPercent int, o Options) core.Config {
	c := core.Config{
		Name: name("BOF ", "", windowPercent),
		Belts: []core.BeltSpec{
			{IncrementFrac: frac(windowPercent), PromoteTo: 1},
			{IncrementFrac: frac(windowPercent), PromoteTo: 0},
		},
		OlderFirst: true,
	}
	o.Apply(&c)
	return c
}

// XX is Beltway X.X (Figure 3(e)): two belts with increments of size X%
// of usable memory, a single bounded nursery increment (the paper's
// nursery trigger), survivors promoted upward, the top belt collected
// FIFO. Incremental but not complete for X < 100.
func XX(x int, o Options) core.Config {
	c := core.Config{
		Name: name("Beltway ", "", x, x),
		Belts: []core.BeltSpec{
			{IncrementFrac: frac(x), MaxIncrements: 1, PromoteTo: 1},
			{IncrementFrac: frac(x), PromoteTo: 1},
		},
		NurseryFilter: true,
	}
	o.Apply(&c)
	return c
}

// XX100 is Beltway X.X.100 (Figure 3(f)): the two X-sized belts of XX
// plus a third belt with a single increment that may grow to all usable
// memory, restoring completeness at the cost of occasional full-heap
// collections.
func XX100(x int, o Options) core.Config {
	c := core.Config{
		Name: name("Beltway ", ".100", x, x),
		Belts: []core.BeltSpec{
			{IncrementFrac: frac(x), MaxIncrements: 1, PromoteTo: 1},
			{IncrementFrac: frac(x), PromoteTo: 2},
			{IncrementFrac: 1.0, PromoteTo: 2},
		},
		NurseryFilter: true,
	}
	o.Apply(&c)
	return c
}

// XXMOS is Beltway X.X.MOS: the paper's §5 future-work configuration —
// the two X-sized lower belts of Beltway X.X with a Mature Object Space
// (train algorithm) belt on top in place of X.X.100's monolithic third
// belt, "so as to obtain completeness without full-heap collections".
// Cars on the MOS belt are X% of usable memory.
func XXMOS(x int, o Options) core.Config {
	c := core.Config{
		Name: name("Beltway ", ".MOS", x, x),
		Belts: []core.BeltSpec{
			{IncrementFrac: frac(x), MaxIncrements: 1, PromoteTo: 1},
			{IncrementFrac: frac(x), PromoteTo: 2},
			{IncrementFrac: frac(x), PromoteTo: 2},
		},
		NurseryFilter: true,
		MOS:           true,
	}
	o.Apply(&c)
	return c
}

// XY is the generalization mentioned in §3.2: two belts with distinct
// increment sizes X and Y (percent of usable memory).
func XY(x, y int, o Options) core.Config {
	c := core.Config{
		Name: name("Beltway ", "", x, y),
		Belts: []core.BeltSpec{
			{IncrementFrac: frac(x), MaxIncrements: 1, PromoteTo: 1},
			{IncrementFrac: frac(y), PromoteTo: 1},
		},
		NurseryFilter: true,
	}
	o.Apply(&c)
	return c
}

func frac(percent int) float64 {
	if percent <= 0 {
		panic(fmt.Sprintf("collectors: non-positive increment percentage %d", percent))
	}
	if percent >= 100 {
		return 1.0
	}
	return float64(percent) / 100.0
}

// WithCardBarrier returns a copy of cfg using card marking instead of
// remembered sets (paper §5 discusses this alternative; see
// core.CardBarrier). The name gains a "+cards" suffix.
func WithCardBarrier(cfg core.Config) core.Config {
	cfg.Barrier = core.CardBarrier
	cfg.Name += "+cards"
	return cfg
}

// WithMarkRegion returns a copy of cfg whose last (most mature) belt uses
// the Immix-style mark-region substrate (internal/markregion): survivors
// of that belt are marked in place and its dead lines swept back to
// allocatable runs, with sparse frames defragmented through the copying
// machinery (MRDefragFrac 0.25). The name gains a "-mr" suffix.
func WithMarkRegion(cfg core.Config) core.Config {
	cfg.Belts = append([]core.BeltSpec(nil), cfg.Belts...)
	cfg.Belts[len(cfg.Belts)-1].Substrate = core.MarkRegion
	cfg.MRDefragFrac = 0.25
	cfg.Name += "-mr"
	return cfg
}

// Immix is the all-mark-region limit of the design space: a single
// self-promoting belt of one unbounded increment on the mark-region
// substrate — mark-sweep over lines with opportunistic evacuation, the
// shape of Blackburn & McKinley's Immix, expressed as a Beltway
// configuration.
func Immix(o Options) core.Config {
	c := core.Config{
		Name: "Immix",
		Belts: []core.BeltSpec{
			{IncrementFrac: 1.0, PromoteTo: 0, Substrate: core.MarkRegion},
		},
		MRDefragFrac: 0.25,
	}
	o.Apply(&c)
	return c
}

// The generational baselines: the Appel-style flexible-nursery
// collector [Appel 1989] and classic fixed-size-nursery collectors, as
// used throughout the paper's evaluation (Figures 1, 5, 6, 9, 10).
//
// Like the paper's GCTk, the baselines share the toolkit's infrastructure
// with Beltway ("of the 26 classes in Beltway and in the generational
// collectors, 23 are common to both"): here they are belt configurations
// of the same core engine, differentiated by the classic generational
// boundary write barrier — a cheaper fast path that does not remember
// boot-image stores, paying instead with a full boot-image scan at every
// collection (§4.2.1 discusses exactly this difference between Appel and
// Beltway 100.100) — and by the classical fixed half-heap copy reserve.

// Appel returns the Appel-style two-generation collector: the nursery
// grows to consume all usable memory not consumed by the second
// generation; the nursery is collected when the heap fills, and the full
// heap is collected when the nursery's share drops below a small fixed
// threshold.
func Appel(o Options) core.Config {
	c := core.Config{
		Name: "Appel",
		Belts: []core.BeltSpec{
			{IncrementFrac: 1.0, MaxIncrements: 1, PromoteTo: 1},
			{IncrementFrac: 1.0, PromoteTo: 1},
		},
		Barrier:          core.BoundaryBarrier,
		FixedHalfReserve: true,
	}
	o.Apply(&c)
	return c
}

// Fixed returns a classic generational collector whose nursery is a
// fixed fraction (percent) of usable memory. The nursery is collected
// whenever it fills; the reservation of a fixed share of the heap for
// the nursery is what cripples these collectors in tight heaps
// (paper Figure 6).
func Fixed(nurseryPercent int, o Options) core.Config {
	if nurseryPercent <= 0 || nurseryPercent >= 100 {
		panic(fmt.Sprintf("collectors: bad nursery percentage %d", nurseryPercent))
	}
	c := core.Config{
		Name: name("Fixed ", "", nurseryPercent),
		Belts: []core.BeltSpec{
			{IncrementFrac: float64(nurseryPercent) / 100, MaxIncrements: 1, PromoteTo: 1,
				ReserveFrac: float64(nurseryPercent) / 100},
			{IncrementFrac: 1.0, PromoteTo: 1},
		},
		Barrier:          core.BoundaryBarrier,
		FixedHalfReserve: true,
	}
	o.Apply(&c)
	return c
}

// Appel3 returns a three-generation Appel-style collector, the
// "logical generalization of Appel to 3 generations" that Beltway
// 100.100.100 corresponds to (§4.2.1).
func Appel3(o Options) core.Config {
	c := core.Config{
		Name: "Appel-3gen",
		Belts: []core.BeltSpec{
			{IncrementFrac: 1.0, MaxIncrements: 1, PromoteTo: 1},
			{IncrementFrac: 1.0, MaxIncrements: 1, PromoteTo: 2},
			{IncrementFrac: 1.0, PromoteTo: 2},
		},
		Barrier:          core.BoundaryBarrier,
		FixedHalfReserve: true,
	}
	o.Apply(&c)
	return c
}

// name is a preset's Name: label, the percentages joined by dots, then
// suffix ("Beltway ", ".100", 25, 25 is "Beltway 25.25.100"). It makes
// the string and nothing else — no fmt, whose buffer pool every Go
// collection empties — since Parse runs before every job.
func name(label, suffix string, pcts ...int) string {
	var buf [48]byte
	b := append(buf[:0], label...)
	for i, p := range pcts {
		if i > 0 {
			b = append(b, '.')
		}
		b = strconv.AppendInt(b, int64(p), 10)
	}
	return string(append(b, suffix...))
}
