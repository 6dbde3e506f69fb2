package core

import (
	"fmt"

	"beltway/internal/heap"
)

// Pretenuring — §5's segregation by allocation site: "Beltway ...
// supports segregation by object characteristics such as size, type, or
// allocation-site (e.g., segregation of long-lived, immortal, or
// immutable objects)", citing the authors' own Pretenuring for Java.
//
// AllocPretenured bump-allocates directly into the top belt, so objects
// the program knows to be long-lived skip the nursery and every promotion
// copy on the way up. The existing machinery keeps this sound: the top
// belt's youngest increment has a high collection-order stamp, so the
// frame barrier remembers pointers from the pretenured object into
// anything younger, exactly as it does for promoted survivors.

// AllocPretenured allocates an object directly on the top belt,
// collecting as needed. It is the allocation-site segregation hook; the
// object is otherwise indistinguishable from a promoted survivor.
func (h *Heap) AllocPretenured(t *heap.TypeDesc, length int) (heap.Addr, error) {
	size := t.Size(length)
	if size > h.cfg.FrameBytes {
		return heap.Nil, fmt.Errorf("core: pretenured object of %d bytes exceeds frame size %d",
			size, h.cfg.FrameBytes)
	}
	h.chargeAlloc(size)
	h.clock.Counters.PretenuredBytes += uint64(size)

	a, ok, err := h.allocCollecting(size, func() (heap.Addr, bool) { return h.tryAllocPretenured(size) })
	if err != nil {
		return heap.Nil, err
	}
	if !ok {
		return heap.Nil, h.oomError(size,
			fmt.Sprintf("%s: pretenured allocation found no space", h.cfg.Name))
	}
	h.serial++
	h.space.Format(a, t, length, h.serial)
	return a, nil
}

// tryAllocPretenured bump-allocates into the top belt's youngest
// increment, opening frames and increments within the mutator budget.
func (h *Heap) tryAllocPretenured(size int) (heap.Addr, bool) {
	bi := len(h.belts) - 1
	belt := h.belts[bi]
	in := belt.Youngest() // on a MOS belt, the last train's last car

	// A mark-region pretenure belt can satisfy the allocation from swept
	// holes in any of its increments before claiming fresh frames.
	if a, ok := h.mrRefillBelt(bi, size); ok {
		return a, true
	}

	if in != nil && !in.condemned {
		if in.cursor != heap.Nil && in.cursor+heap.Addr(size) <= in.limit {
			return h.bump(in, size), true
		}
		if !in.atCapacity() && h.freeBudgetFor(bi) >= h.cfg.FrameBytes {
			if !h.addFrame(in) {
				return heap.Nil, false // injected map failure: treat as heap-full
			}
			return h.bump(in, size), true
		}
	}
	// Need a fresh increment (or car).
	if h.freeBudgetFor(bi) < h.cfg.FrameBytes {
		return heap.Nil, false
	}
	if belt.spec.MaxIncrements > 0 && belt.Len() >= belt.spec.MaxIncrements {
		return heap.Nil, false
	}
	if h.cfg.MOS {
		// Start or extend the last train.
		lt := h.lastTrain()
		var car *Increment
		if lt >= 0 && len(h.trainCars(lt)) < mosCarsPerTrain {
			car = h.newMOSCar(lt)
		} else {
			car = h.newTrain()
		}
		if !h.addFrame(car) {
			// Roll the frameless car back; MOS seq numbers are dense, so
			// removal renumbers the belt.
			h.belts[car.belt].remove(car)
			h.renumberMOS()
			return heap.Nil, false
		}
		return h.bump(car, size), true
	}
	in = h.newIncrement(belt)
	if !h.addFrame(in) {
		belt.remove(in)
		return heap.Nil, false
	}
	return h.bump(in, size), true
}
