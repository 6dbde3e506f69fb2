package core

import "beltway/internal/heap"

// Mature Object Space (MOS) belt — the paper's stated future work:
// "One possibility that we leave to future work is adding Mature Object
// Space [Hudson & Moss 1992] copying rules to Beltway so as to obtain
// completeness without full-heap collections" (§5; also §3.2).
//
// With Config.MOS set, the top belt's increments become the train
// algorithm's CARS, grouped into TRAINS:
//
//   - collection order is lowest train first, cars FIFO within a train
//     (the belt's increment list is kept in exactly that order, so the
//     frame-stamp barrier and the FIFO scheduler work unchanged);
//
//   - survivors of a collected car are evacuated by REFERRER: an object
//     referenced from another car moves to the back of the REFERRER's
//     train; an object referenced from outside the mature space (roots,
//     younger belts, the boot image) moves to the back of the LAST train
//     (or a fresh train when the last train is the one being collected);
//     transitively-reached objects follow the object that reached them;
//
//   - before collecting a car, the whole lowest train is tested for
//     death: if the younger belts are empty, no root points into the
//     train, and no remembered pointer enters it from outside the train,
//     every car of the train is condemned at once. Cross-car garbage
//     cycles migrate into a single train under the referrer rule and die
//     there — which is how MOS achieves completeness while only ever
//     collecting one car (or one dead train) at a time.
type mosState struct {
	nextTrain int
}

// mosCarsPerTrain bounds the last train's growth for promotions; when
// reached, newly promoted objects open a fresh train.
const mosCarsPerTrain = 4

// mosBelt returns the index of the MOS belt (the top belt), or -1.
func (h *Heap) mosBelt() int {
	if !h.cfg.MOS {
		return -1
	}
	return len(h.belts) - 1
}

// renumberMOS reassigns dense seq numbers (and frame stamps) to the MOS
// belt's cars after an insertion. Insertions never reorder existing
// cars, so previously taken barrier decisions stay sound; only the new
// car acquires an intermediate position.
func (h *Heap) renumberMOS() {
	b := h.belts[h.mosBelt()]
	for i, in := range b.incrs {
		in.seq = uint32(i)
		st := stampOf(b.priority, in.seq)
		for _, f := range in.frames {
			h.stamp[f] = st
		}
	}
	b.nextSeq = uint32(len(b.incrs))
}

// newMOSCar creates a car on the given train, inserted after the train's
// existing cars (before any later train's cars), and renumbers.
func (h *Heap) newMOSCar(train int) *Increment {
	bi := h.mosBelt()
	b := h.belts[bi]
	in := h.takeIncrement(Increment{belt: bi, train: train, capFrames: h.frameBudget(b)})
	// Insertion point: after the last car of `train`.
	pos := len(b.incrs)
	for i, c := range b.incrs {
		if c.train > train {
			pos = i
			break
		}
	}
	b.incrs = append(b.incrs, nil)
	copy(b.incrs[pos+1:], b.incrs[pos:])
	b.incrs[pos] = in
	h.renumberMOS()
	return in
}

// newTrain opens a fresh (highest) train with one car.
func (h *Heap) newTrain() *Increment {
	h.mos.nextTrain++
	return h.newMOSCar(h.mos.nextTrain - 1)
}

// lastTrain returns the highest train id currently on the MOS belt, or
// -1 when the belt is empty.
func (h *Heap) lastTrain() int {
	b := h.belts[h.mosBelt()]
	if b.Len() == 0 {
		return -1
	}
	return b.incrs[b.Len()-1].train
}

// trainCars returns the cars of one train, in collection order: a view of
// the MOS belt, whose cars newMOSCar keeps grouped by train. The view is
// capped at its length, so an append copies rather than writes over the
// belt, and it is read before the belt next changes.
func (h *Heap) trainCars(train int) []*Increment {
	incrs := h.belts[h.mosBelt()].incrs
	lo := 0
	for lo < len(incrs) && incrs[lo].train != train {
		lo++
	}
	hi := lo
	for hi < len(incrs) && incrs[hi].train == train {
		hi++
	}
	return incrs[lo:hi:hi]
}

// mosDestination resolves the evacuation car for a condemned MOS object,
// per the referrer rule. ctx is the increment holding the referrer (nil
// for roots and the boot image); src is the condemned car.
func (h *Heap) mosDestination(src *Increment, ctx *Increment, st *gcState) *Increment {
	bi := h.mosBelt()
	var train int
	switch {
	case ctx != nil && ctx.belt == bi && !ctx.condemned:
		// Referenced from another (surviving) mature car: move to the
		// back of the referrer's train, gathering linked structures —
		// and eventually whole cycles — into one train.
		train = ctx.train
	default:
		// External reference (root, younger belt, boot image, or a car
		// being collected alongside): move to the last train, or a new
		// one if the last train is the one being collected.
		train = h.lastTrain()
		if train < 0 || train == src.train {
			return h.mosTargetCar(-1, st)
		}
	}
	return h.mosTargetCar(train, st)
}

// mosTargetCar returns (creating if needed) the open destination car on
// the given train (-1 means a brand-new train), registered with the
// collection's scan list.
func (h *Heap) mosTargetCar(train int, st *gcState) *Increment {
	in := st.mosDest[train] // never set for -1
	if in != nil {
		return in
	}
	if train < 0 {
		in = h.newTrain()
	} else if cars := h.trainCars(train); len(cars) > 0 &&
		!cars[len(cars)-1].condemned && !cars[len(cars)-1].atCapacity() {
		in = cars[len(cars)-1]
	} else {
		in = h.newMOSCar(train)
	}
	st.mosDest[in.train] = in
	h.registerScan(in, st)
	return in
}

// trainIsDead reports whether the lowest train can be reclaimed without
// tracing: the younger belts hold no objects, no root points into the
// train, and no remembered pointer targets it from outside itself.
// (Stale remembered entries make the test conservative, never unsound.)
func (h *Heap) trainIsDead(train int) bool {
	bi := h.mosBelt()
	for i := 0; i < bi; i++ {
		if h.belts[i].Bytes() > 0 {
			return false
		}
	}
	inTrain := func(f heap.Frame) bool {
		if int(f) >= len(h.incrOf) {
			return false
		}
		in := h.incrOf[f]
		return in != nil && in.belt == bi && in.train == train
	}
	live := false
	h.roots.Walk(func(a heap.Addr) heap.Addr {
		if inTrain(h.space.FrameOf(a)) {
			live = true
		}
		return a
	})
	if live {
		return false
	}
	if h.rems.AnyEntry(func(src, tgt heap.Frame) bool {
		return inTrain(tgt) && !inTrain(src)
	}) {
		return false
	}
	return true
}

// chooseVictimsMOS appends the MOS belt's condemned set to victims: the
// whole lowest train when it is dead, otherwise its lowest car.
func (h *Heap) chooseVictimsMOS(victims []*Increment) []*Increment {
	b := h.belts[h.mosBelt()]
	if b.Len() == 0 {
		return victims
	}
	lowest := b.incrs[0].train
	if h.trainIsDead(lowest) {
		return append(victims, h.trainCars(lowest)...)
	}
	return append(victims, b.Oldest())
}
