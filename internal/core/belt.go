package core

import (
	"fmt"

	"beltway/internal/heap"
)

// Increment is the unit of independent collection: an ordered set of
// frames filled by bump allocation (of new objects, of copied survivors,
// or of both, depending on the configuration).
type Increment struct {
	belt  int    // index into Heap.belts
	seq   uint32 // FIFO position: creation sequence within the belt's lifetime
	train int    // MOS train id; -1 outside MOS belts

	frames []heap.Frame
	cursor heap.Addr // next free address in the last frame; Nil when no frame open
	limit  heap.Addr // end of the last frame

	bytes     int // occupied bytes (including per-frame tail waste)
	capFrames int // frame budget; 0 = unbounded (IncrementFrac >= 1)

	// Mark-region line cursor: the next frame index / line to search for
	// a free-line run (monotonic per allocation cycle, reset by sweeps).
	// Unused on copying belts.
	mrFi   int
	mrLine int

	condemned bool // true while being collected
}

// Belt returns the index of the belt holding the increment.
func (in *Increment) Belt() int { return in.belt }

// Seq returns the increment's FIFO sequence number within its belt.
func (in *Increment) Seq() uint32 { return in.seq }

// Train returns the MOS train id of the increment (-1 when the
// increment is not a mature-object-space car).
func (in *Increment) Train() int { return in.train }

// Bytes returns the increment's current occupancy in bytes.
func (in *Increment) Bytes() int { return in.bytes }

// Frames returns the number of frames held by the increment.
func (in *Increment) Frames() int { return len(in.frames) }

// atCapacity reports whether the increment may not acquire another frame.
func (in *Increment) atCapacity() bool {
	return in.capFrames > 0 && len(in.frames) >= in.capFrames
}

func (in *Increment) String() string {
	return fmt.Sprintf("belt%d/incr%d(%d frames, %d bytes)", in.belt, in.seq, len(in.frames), in.bytes)
}

// Belt is a FIFO queue of increments. The oldest increment (front of the
// queue) is always the next collected; survivors are promoted to the
// youngest open increment of the promotion-target belt.
type Belt struct {
	index     int // position in Heap.belts; fixed, unlike priority
	spec      BeltSpec
	incrs     []*Increment // oldest first
	nextSeq   uint32
	priority  uint16 // collection-order priority; equals belt index except under BOF flips
	promoteTo int    // current promotion target; equals spec.PromoteTo except under BOF flips
}

// PromoteTo returns the belt index currently receiving this belt's
// survivors.
func (b *Belt) PromoteTo() int { return b.promoteTo }

// Priority returns the belt's current collection-order priority.
func (b *Belt) Priority() uint16 { return b.priority }

// Spec returns the belt's configuration.
func (b *Belt) Spec() BeltSpec { return b.spec }

// Len returns the number of increments currently on the belt.
func (b *Belt) Len() int { return len(b.incrs) }

// Oldest returns the front-of-queue increment, or nil when empty.
func (b *Belt) Oldest() *Increment {
	if len(b.incrs) == 0 {
		return nil
	}
	return b.incrs[0]
}

// Youngest returns the back-of-queue increment, or nil when empty.
func (b *Belt) Youngest() *Increment {
	if len(b.incrs) == 0 {
		return nil
	}
	return b.incrs[len(b.incrs)-1]
}

// Bytes returns the total occupancy of the belt.
func (b *Belt) Bytes() int {
	n := 0
	for _, in := range b.incrs {
		n += in.bytes
	}
	return n
}

// remove drops increment in from the belt (after collection).
func (b *Belt) remove(in *Increment) {
	for i, x := range b.incrs {
		if x == in {
			b.incrs = append(b.incrs[:i], b.incrs[i+1:]...)
			return
		}
	}
	panic(fmt.Sprintf("core: increment %v not on belt", in))
}

// stampOf computes the collection-order stamp for an increment: belts
// with lower priority are collected sooner, and within a belt increments
// are collected in FIFO (seq) order. The write barrier remembers a
// pointer exactly when stamp(targetFrame) < stamp(sourceFrame).
func stampOf(priority uint16, seq uint32) uint64 {
	return uint64(priority)<<32 | uint64(seq)
}

// immortalStamp orders the boot image after every collectible frame, so
// the frame barrier remembers boot-image stores into the heap.
const immortalStamp = ^uint64(0)

// Increments returns the belt's increments in collection order
// (inspection only).
func (b *Belt) Increments() []*Increment { return b.incrs }
