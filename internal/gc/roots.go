package gc

import (
	"fmt"

	"beltway/internal/heap"
)

// Handle is a stable reference to a root slot. Because collections move
// objects, mutator code must never hold a heap.Addr across a potential
// collection point; it holds a Handle and rereads the address. This is
// the moral equivalent of the stack maps and registers a real VM scans.
//
// The zero Handle is NilHandle, so zero-valued fields and map misses are
// harmless.
type Handle int32

// NilHandle is the zero, empty handle; Get on it returns heap.Nil.
const NilHandle Handle = 0

// RootSet is the mutator's root table: a growable array of address slots
// plus a mark stack discipline (scopes) for temporaries. Collectors scan
// every live slot and update it in place when the referent moves.
//
// Handle numbering is load-bearing: a handle is a slot index plus one,
// recorded traces, oracle fingerprints and ledger digests all contain
// handles, so the order in which slots are minted, freed (Remove pushes
// on the free list, PopScope releases a scope's handles oldest first)
// and reused (free list LIFO) is part of the simulator's observable
// behaviour. Only the representation may change.
type RootSet struct {
	slots []rootSlot
	free  []int32
	// Scopes are a LIFO discipline, so every open scope's entries live in
	// one contiguous stack and marks holds the index at which each open
	// scope starts: PushScope and PopScope move two lengths, and once the
	// arrays have reached a run's depth nothing here allocates.
	scoped []scopedRef
	marks  []int32
}

// rootSlot is one root: the address, the slot's incarnation counter
// (bumped on free-list reuse) and whether it is live. One record per
// slot keeps Get, Set and Remove to a single bounds check and cache line.
type rootSlot struct {
	addr  heap.Addr
	epoch uint32
	inUse bool
}

// scopedRef pins a scope entry to one incarnation of its slot. A handle
// value is an index, so after Remove frees the slot and the free list
// hands the index out again, the same Handle names a different root;
// the epoch lets PopScope release exactly the incarnation it registered
// and skip stale entries. (Found by differential fuzzing: release inside
// a scope, then a global allocation reusing the slot, then PopScope
// silently killed the global root.)
type scopedRef struct {
	h     Handle
	epoch uint32
}

// NewRootSet returns an empty root set.
func NewRootSet() *RootSet {
	return &RootSet{}
}

// RootStorage is what a released RootSet leaves behind: its arrays,
// emptied with their capacity kept. A table built on them starts where a
// new one does, at handle 1 and epoch 0.
type RootStorage struct {
	slots  []rootSlot
	free   []int32
	scoped []scopedRef
	marks  []int32
}

// NewRootSetFrom returns an empty root set that grows into st's arrays.
func NewRootSetFrom(st RootStorage) *RootSet {
	return &RootSet{slots: st.slots, free: st.free, scoped: st.scoped, marks: st.marks}
}

// Release empties the root set and returns its arrays for the next one
// (NewRootSetFrom). The set keeps none of them: every handle it minted is
// invalid afterwards, and nothing done through it reaches the next set.
func (r *RootSet) Release() RootStorage {
	st := RootStorage{slots: r.slots[:0], free: r.free[:0], scoped: r.scoped[:0], marks: r.marks[:0]}
	*r = RootSet{}
	return st
}

// Add registers a new root holding a (possibly Nil) address and returns
// its handle. Roots added inside a scope are released by the matching
// PopScope; roots added outside any scope are global and live until
// Remove.
func (r *RootSet) Add(a heap.Addr) Handle {
	idx := r.addSlot(a)
	h := Handle(idx + 1)
	if len(r.marks) > 0 {
		r.scoped = append(r.scoped, scopedRef{h, r.slots[idx].epoch})
	}
	return h
}

// AddGlobal registers a root that ignores the scope discipline: it lives
// until Remove even when created inside a scope. Long-lived structures
// built inside transaction scopes use this.
func (r *RootSet) AddGlobal(a heap.Addr) Handle {
	return Handle(r.addSlot(a) + 1)
}

func (r *RootSet) addSlot(a heap.Addr) int32 {
	if n := len(r.free); n > 0 {
		idx := r.free[n-1]
		r.free = r.free[:n-1]
		s := &r.slots[idx]
		s.addr = a
		s.inUse = true
		s.epoch++
		return idx
	}
	r.slots = append(r.slots, rootSlot{addr: a, inUse: true})
	return int32(len(r.slots) - 1)
}

// live returns h's slot, or nil when h does not name a live root. It
// inlines into Get, Set, Remove and PopScope, which raise invalidHandle
// out of line, so a handle lookup is one call and no more.
func (r *RootSet) live(h Handle) *rootSlot {
	if i := uint(h) - 1; i < uint(len(r.slots)) && r.slots[i].inUse {
		return &r.slots[i]
	}
	return nil
}

// invalidHandle panics for op on a handle that names no live root: never
// minted, removed, or released by its scope's PopScope.
//
//go:noinline
func invalidHandle(op string, h Handle) {
	panic(fmt.Sprintf("gc: %s of invalid handle %d", op, h))
}

// Remove releases a root handle.
func (r *RootSet) Remove(h Handle) {
	s := r.live(h)
	if s == nil {
		invalidHandle("Remove", h)
	}
	r.release(s, h)
}

// release frees h's live slot s: the index goes on top of the free list.
func (r *RootSet) release(s *rootSlot, h Handle) {
	s.addr = heap.Nil
	s.inUse = false
	r.free = append(r.free, int32(h)-1)
}

// Get returns the current address held by h. It must be reread after any
// potential collection point.
func (r *RootSet) Get(h Handle) heap.Addr {
	if h == NilHandle {
		return heap.Nil
	}
	s := r.live(h)
	if s == nil {
		invalidHandle("Get", h)
	}
	return s.addr
}

// Set stores an address into root h. Root stores need no write barrier:
// roots are scanned in full at every collection, exactly as in the paper.
func (r *RootSet) Set(h Handle, a heap.Addr) {
	s := r.live(h)
	if s == nil {
		invalidHandle("Set", h)
	}
	s.addr = a
}

// PushScope opens a dynamic scope: every handle Added until the matching
// PopScope is released automatically. Scopes model stack frames of the
// mutator.
func (r *RootSet) PushScope() {
	r.marks = append(r.marks, int32(len(r.scoped)))
}

// PopScope closes the innermost scope, releasing its handles in the
// order they were added.
func (r *RootSet) PopScope() {
	n := len(r.marks)
	if n == 0 {
		panic("gc: PopScope without PushScope")
	}
	start := r.marks[n-1]
	for _, sr := range r.scoped[start:] {
		if s := r.live(sr.h); s != nil && s.epoch == sr.epoch {
			r.release(s, sr.h)
		}
	}
	r.scoped = r.scoped[:start]
	r.marks = r.marks[:n-1]
}

// Len returns the number of live root slots.
func (r *RootSet) Len() int {
	n := 0
	for i := range r.slots {
		if r.slots[i].inUse {
			n++
		}
	}
	return n
}

// Capacity returns the size of the underlying slot table (scanned slots).
func (r *RootSet) Capacity() int { return len(r.slots) }

// Walk calls fn for every live, non-nil root slot with its current
// address; the slot is updated to fn's return value. Collectors use this
// to trace and forward roots. Freeing a slot sets it to Nil, so the one
// test skips free and nil slots alike.
func (r *RootSet) Walk(fn func(a heap.Addr) heap.Addr) {
	for i := range r.slots {
		if s := &r.slots[i]; s.addr != heap.Nil {
			s.addr = fn(s.addr)
		}
	}
}
