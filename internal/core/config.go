// Package core implements the Beltway garbage collection framework of
// Blackburn, Jones, McKinley and Moss (PLDI 2002): belts of FIFO
// increments over power-of-two frames, the unidirectional frame write
// barrier (paper Figure 4), per-frame-pair remembered sets, collection
// triggers, and the dynamic conservative copy reserve. Every copying
// collector in the paper — semi-space, Appel-style generational,
// older-first mix, older-first, Beltway X.X and Beltway X.X.100 — is a
// configuration of this one engine (see internal/collectors for the
// presets).
package core

import (
	"fmt"

	"beltway/internal/markregion"
	"beltway/internal/stats"
)

// BarrierKind selects the write-barrier mechanism and its cost profile.
type BarrierKind uint8

const (
	// FrameBarrier is Beltway's shift-and-compare barrier over frame
	// collection-order stamps (paper Figure 4). Stores out of the boot
	// image are remembered like any others.
	FrameBarrier BarrierKind = iota
	// BoundaryBarrier models the classic generational boundary-crossing
	// barrier used by the paper's Appel-style baseline: a cheaper fast
	// path, but the boot image must be scanned in full at every
	// collection because boot-image stores are not remembered.
	BoundaryBarrier
	// CardBarrier replaces remembered sets with card marking (paper §5):
	// the cheapest possible store barrier — unconditionally dirty the
	// 512-byte card holding the slot — paid for by scanning every dirty
	// card of every uncollected frame at each collection.
	CardBarrier
)

func (b BarrierKind) String() string {
	switch b {
	case BoundaryBarrier:
		return "boundary"
	case CardBarrier:
		return "card"
	default:
		return "frame"
	}
}

// Options carries the run-scoped parameters shared by every preset
// configuration (see internal/collectors).
type Options struct {
	HeapBytes    int
	FrameBytes   int
	PhysMemBytes int // 0 disables the paging model
}

// Apply copies the options into a configuration.
func (o Options) Apply(c *Config) {
	c.HeapBytes = o.HeapBytes
	c.FrameBytes = o.FrameBytes
	c.PhysMemBytes = o.PhysMemBytes
}

// Substrate selects how a belt's increments manage their frames.
type Substrate uint8

const (
	// Copying is the classic Beltway substrate: increments are filled by
	// bump allocation and reclaimed by evacuating their survivors to the
	// promotion target (Cheney copying).
	Copying Substrate = iota
	// MarkRegion is the Immix-style substrate (internal/markregion):
	// frames are divided into lines, allocation bumps over free line
	// runs, and a condemned increment's survivors are marked in place
	// and its dead lines swept back to allocatable runs — except for
	// sparsely occupied frames, which are opportunistically evacuated
	// (Config.MRDefragFrac) through the normal copying machinery.
	MarkRegion
)

func (s Substrate) String() string {
	if s == MarkRegion {
		return "mark-region"
	}
	return "copying"
}

// BeltSpec configures one belt.
type BeltSpec struct {
	// IncrementFrac is the maximum increment size X as a fraction of
	// usable memory (heap minus copy reserve), fixed when the increment
	// is created. A value >= 1 means increments are unbounded and grow
	// until the heap-full condition triggers a collection — the belts of
	// BSS, BA2 and the third belt of Beltway X.X.100 work this way.
	IncrementFrac float64

	// MaxIncrements bounds the number of increments simultaneously on
	// the belt; 0 means unbounded. Setting 1 on the nursery belt is the
	// paper's nursery trigger (§3.3.3): allocation that would need a
	// second increment collects the first instead.
	MaxIncrements int

	// PromoteTo is the belt index that receives this belt's survivors.
	// A belt may promote to itself (semi-space, older-first mix, and the
	// top belt of every configuration).
	PromoteTo int

	// ReserveFrac permanently sets aside this fraction of usable memory
	// for the belt: other belts may not grow into it even while it is
	// unused. This models the classic fixed-size-nursery reservation,
	// whose cost in tight heaps Figure 6 demonstrates ("the reservation
	// of a fixed proportion of the heap for the nursery significantly
	// impacts the collector's capacity to perform in tight heaps").
	// Zero (the default, used by all Beltway configurations) reserves
	// nothing.
	ReserveFrac float64

	// Substrate selects the belt's frame management: Copying (the
	// default) or MarkRegion. Mark-region belts trade copy traffic for
	// line-granularity fragmentation; belts of both kinds mix freely
	// (e.g. a copying nursery over a mark-region mature belt).
	Substrate Substrate
}

// Config describes a complete Beltway collector configuration. It is the
// programmatic form of the paper's command-line options.
type Config struct {
	// Name is the display name, e.g. "Beltway 25.25.100".
	Name string

	// HeapBytes is the collected-heap budget (excluding the immortal
	// boot-image space), the x-axis of every figure in the paper.
	HeapBytes int

	// FrameBytes is the power-of-two frame size.
	FrameBytes int

	// Belts, lowest (youngest) first. Belt 0 receives allocation unless
	// OlderFirst rotates the roles.
	Belts []BeltSpec

	// Barrier selects frame vs boundary barrier (see BarrierKind).
	Barrier BarrierKind

	// OlderFirst enables BOF belt flipping: when the allocation belt
	// runs empty at a heap-full event, the two belts swap roles and the
	// frame collection-order stamps are renumbered.
	OlderFirst bool

	// NurseryFilter enables the §3.3.2 optimization that filters barrier
	// work for stores whose source is in the nursery (profitable with a
	// single nursery increment; affects barrier cost accounting only,
	// since nursery-sourced stores are never remembered anyway).
	NurseryFilter bool

	// TTDBytes enables the time-to-die trigger (§3.3.3): when the heap
	// is within TTDBytes of full, allocation switches to a fresh nursery
	// increment so that the most recently allocated TTDBytes are not
	// condemned by the next nursery collection. Zero disables.
	TTDBytes int

	// FixedHalfReserve pins the copy reserve at half the heap, as the
	// classical semi-space and generational implementations do (§3.1:
	// "Classical generational and semi-space collectors must reserve
	// half the heap"). Beltway configurations leave it false and use the
	// dynamic conservative reserve of §3.3.4.
	FixedHalfReserve bool

	// RemsetThreshold enables the remset trigger (§3.3.3): when the
	// number of remembered entries targeting a collectible increment
	// exceeds this value, that increment is collected at the next poll.
	// Zero disables.
	RemsetThreshold int

	// MOS turns the top belt into a Mature Object Space (train
	// algorithm) belt — the paper's §5 future-work extension giving
	// completeness without full-heap collections. Requires the frame
	// barrier, a bounded top-belt increment size (the car size), and a
	// self-promoting top belt. See internal/core/mos.go.
	MOS bool

	// MRLineBytes is the line size of mark-region belts; zero means
	// markregion.DefaultLineBytes (128). Must be a power of two, at
	// least two words, with at least two lines per frame.
	MRLineBytes int

	// MRDefragFrac tunes opportunistic defragmentation of mark-region
	// belts: a condemned frame whose line occupancy is below this
	// fraction is evacuated through the copying machinery instead of
	// being swept in place. Zero disables defragmentation (pure
	// mark-sweep-to-lines); must stay below 1.
	MRDefragFrac float64

	// Costs is the cost model; zero value means stats.DefaultCosts().
	Costs stats.CostModel

	// PhysMemBytes models the machine's physical memory for the paging
	// term of the cost model (paper Figure 1(b): large heaps page).
	// Zero disables paging charges.
	PhysMemBytes int

	// Policy, when non-nil, is the adaptive-policy hook point (see
	// tuning.go): it is consulted at the end of every collection and may
	// retune the scheduling knobs — belt/increment sizing, promotion
	// targets, trigger thresholds — for the rest of the run. The paper's
	// policies are static for the life of a run; this is the "online
	// adaptive policy controller" extension, and internal/policy provides
	// the objective-driven implementation. Excluded from serialization
	// like DebugDropBarrierEvery: a controller is run-scoped state, not part of a
	// configuration's identity, and a nil Policy leaves behavior
	// bit-identical to a build without the hook.
	Policy Tuner `json:"-"`

	// DebugDropBarrierEvery, when positive, makes the write barrier
	// silently drop every Nth interesting-pointer remember. It exists
	// solely to prove the differential oracle catches barrier bugs (a
	// mutation test; see internal/check) and is excluded from fixture
	// serialization so committed reproducers never carry it.
	DebugDropBarrierEvery int `json:"-"`
}

// Validate checks structural invariants of the configuration.
func (c *Config) Validate() error {
	if c.HeapBytes <= 0 {
		return fmt.Errorf("core: non-positive heap size %d", c.HeapBytes)
	}
	if c.FrameBytes < 256 || c.FrameBytes&(c.FrameBytes-1) != 0 {
		return fmt.Errorf("core: frame size %d not a power of two >= 256", c.FrameBytes)
	}
	if c.HeapBytes < 4*c.FrameBytes {
		return fmt.Errorf("core: heap %d too small for frame size %d (need >= 4 frames)",
			c.HeapBytes, c.FrameBytes)
	}
	if len(c.Belts) == 0 {
		return fmt.Errorf("core: no belts configured")
	}
	for i, b := range c.Belts {
		if b.IncrementFrac <= 0 {
			return fmt.Errorf("core: belt %d: non-positive increment fraction %v", i, b.IncrementFrac)
		}
		if b.PromoteTo < 0 || b.PromoteTo >= len(c.Belts) {
			return fmt.Errorf("core: belt %d: promotion target %d out of range", i, b.PromoteTo)
		}
		if b.PromoteTo < i && !c.OlderFirst {
			return fmt.Errorf("core: belt %d: demotion to belt %d is not supported", i, b.PromoteTo)
		}
		if b.MaxIncrements < 0 {
			return fmt.Errorf("core: belt %d: negative MaxIncrements", i)
		}
		if b.ReserveFrac < 0 || b.ReserveFrac >= 1 {
			return fmt.Errorf("core: belt %d: ReserveFrac %v out of [0,1)", i, b.ReserveFrac)
		}
	}
	if c.OlderFirst && len(c.Belts) != 2 {
		return fmt.Errorf("core: older-first requires exactly 2 belts, have %d", len(c.Belts))
	}
	if c.TTDBytes < 0 || c.RemsetThreshold < 0 {
		return fmt.Errorf("core: negative trigger parameter")
	}
	if c.MOS {
		last := len(c.Belts) - 1
		switch {
		case len(c.Belts) < 2:
			return fmt.Errorf("core: MOS requires at least two belts")
		case c.Belts[last].IncrementFrac >= 1:
			return fmt.Errorf("core: MOS requires bounded cars (top belt IncrementFrac < 1)")
		case c.Belts[last].PromoteTo != last:
			return fmt.Errorf("core: MOS top belt must promote to itself")
		case c.Barrier != FrameBarrier:
			return fmt.Errorf("core: MOS requires the frame barrier")
		case c.OlderFirst:
			return fmt.Errorf("core: MOS and older-first are mutually exclusive")
		}
	}
	mr := false
	for i, b := range c.Belts {
		switch b.Substrate {
		case Copying:
		case MarkRegion:
			mr = true
		default:
			return fmt.Errorf("core: belt %d: unknown substrate %d", i, b.Substrate)
		}
	}
	if mr {
		switch {
		case c.OlderFirst:
			// BOF flips renumber stamps under the two belts; mark-region
			// renewal re-sequences increments independently, and the two
			// renumberings do not compose.
			return fmt.Errorf("core: mark-region belts and older-first are mutually exclusive")
		case c.Barrier == CardBarrier:
			// Dirty-card scanning walks each frame linearly from its base
			// to its fill mark, which is meaningless over line holes.
			return fmt.Errorf("core: mark-region belts require remembered sets (frame or boundary barrier)")
		case c.MOS:
			return fmt.Errorf("core: mark-region belts and MOS are mutually exclusive")
		case c.MRDefragFrac < 0 || c.MRDefragFrac >= 1:
			return fmt.Errorf("core: MRDefragFrac %v out of [0,1)", c.MRDefragFrac)
		}
		lb := c.MRLineBytes
		if lb == 0 {
			lb = markregion.DefaultLineBytes
		}
		if _, err := markregion.NewGeometry(c.FrameBytes, lb); err != nil {
			return err
		}
	}
	return nil
}

// isZeroCosts reports whether the cost model was left unset.
func isZeroCosts(c stats.CostModel) bool { return c == stats.CostModel{} }
