package trace

import (
	"fmt"

	"beltway/internal/gc"
)

// Slice builds a new trace containing only the mutator operations whose
// index (in NumOps numbering) satisfies keep, with every handle value
// renumbered to what a fresh gc.RootSet will assign during replay of the
// reduced stream. Type definitions are always retained. It returns an
// error when the reduced stream is not self-contained — a kept operation
// references a handle created by a dropped one, or closes a scope that
// was never opened — which a delta-debugging loop treats as "candidate
// invalid", not as a failure of the trace being minimized.
//
// Renumbering simulates the replay-side root table with an actual
// gc.RootSet, so handle reuse through the free list and scope-release
// order are reproduced exactly; replay's handle-drift assertions then
// hold for any semantics-preserving reduction. (A reduction that changes
// semantics — e.g. dropping the store a later load depends on — replays
// as a drift error and is likewise rejected by the caller's predicate.)
func (t *Trace) Slice(keep func(i int) bool) (out *Trace, err error) {
	defer func() {
		// The RootSet simulation panics on invalid handle use (release
		// after scope exit, unbalanced Pop); that marks the candidate
		// invalid rather than a bug.
		if r := recover(); r != nil {
			out, err = nil, fmt.Errorf("trace: slice invalid: %v", r)
		}
	}()
	nt := &Trace{}
	rs := gc.NewRootSet()
	// remap[old] is the handle a kept op rooted in place of old, 0 while
	// none has; old handles are live in the trace, so they index it.
	remap := []gc.Handle{0}
	mapped := func(old uint64) (uint64, error) {
		if old != 0 && (old >= uint64(len(remap)) || remap[old] == 0) {
			return 0, fmt.Errorf("trace: slice drops handle %d still in use", old)
		}
		return uint64(remap[old]), nil
	}
	rooted := func(old uint64, nh gc.Handle) uint64 {
		for uint64(len(remap)) <= old {
			remap = append(remap, 0)
		}
		remap[old] = nh
		return uint64(nh)
	}
	idx := -1
	err = decode(t.buf, func(r *event) (err error) {
		a := &r.arg
		if r.code == opDefineType {
			nt.emit(opDefineType, a[:]...)
			nt.buf = append(nt.buf, r.typ.name...)
			return nil
		}
		if idx++; !keep(idx) {
			return nil
		}
		// Renumber the handles the op reads, then the one it roots.
		switch r.code {
		case opSetRef:
			if a[2], err = mapped(a[2]); err != nil {
				return err
			}
			fallthrough
		case opGetRef, opRefIsNil, opSetData, opGetData, opRelease, opKeep:
			if a[0], err = mapped(a[0]); err != nil {
				return err
			}
		}
		switch r.code {
		case opAlloc, opAllocImmortal:
			a[2] = rooted(a[2], rs.Add(live))
		case opAllocGlobal:
			a[2] = rooted(a[2], rs.AddGlobal(live))
		case opAllocPretenured:
			if a[3] == 1 {
				a[2] = rooted(a[2], rs.AddGlobal(live))
			} else {
				a[2] = rooted(a[2], rs.Add(live))
			}
		case opGetRef:
			if a[2] != 0 {
				a[2] = rooted(a[2], rs.Add(live))
			}
		case opKeep:
			a[1] = rooted(a[1], rs.AddGlobal(live))
		case opRelease:
			rs.Remove(gc.Handle(a[0]))
		case opPush:
			rs.PushScope()
		case opPop:
			rs.PopScope()
		}
		nt.emit(r.code, a[:arity[r.code]]...)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return nt, nil
}
