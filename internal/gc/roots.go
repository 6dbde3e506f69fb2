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
	// addrs is the table a collection scans and Get reads: slot i holds
	// handle i+1's address, Nil included, or freeSlot when no root owns
	// it. Liveness is folded into the address, so a lookup is one load and
	// one compare and the scan reads one word per slot.
	addrs []heap.Addr
	// epochs[i] counts the times slot i has been freed. Only a scoped Add,
	// PopScope and the free path touch it.
	epochs []uint32
	free   []int32
	// Scopes are a LIFO discipline, so every open scope's entries live in
	// one contiguous stack and marks holds the index at which each open
	// scope starts: PushScope and PopScope move two lengths, and once the
	// arrays have reached a run's depth nothing here allocates.
	scoped []scopedRef
	marks  []int32
}

// freeSlot is what a free slot holds. Objects are word aligned, so no
// root's address, Nil or an object's, can equal it; every address a root
// may hold is either Nil or greater than it.
const freeSlot heap.Addr = 1

// scopedRef pins a scope entry to one incarnation of its slot. A handle
// value is an index, so after Remove frees the slot and the free list
// hands the index out again, the same Handle names a different root.
// The slot's epoch moves when the slot is freed, so an entry whose epoch
// still matches names a root that is live and is the one the scope
// registered: PopScope releases it, and skips every other entry.
// (Found by differential fuzzing: release inside a scope, then a global
// allocation reusing the slot, then PopScope silently killed the global
// root.)
type scopedRef struct {
	h     Handle
	epoch uint32
}

// NewRootSet returns an empty root set.
func NewRootSet() *RootSet {
	return &RootSet{}
}

// RootStorage is what a released RootSet leaves behind: its arrays,
// emptied with their capacity kept, in the RootSet value the next one is
// built in. A table built on them starts where a new one does, at handle
// 1 and epoch 0.
type RootStorage struct{ r RootSet }

// NewRootSetFrom returns an empty root set that grows into st's arrays.
// The set is st's own: whoever holds st keeps the set in it, and the
// set's next Release refills st.
func NewRootSetFrom(st *RootStorage) *RootSet { return &st.r }

// Release empties the root set and returns its arrays for the next one
// (NewRootSetFrom). The set keeps none of them: every handle it minted is
// invalid afterwards, and nothing done through it reaches the next set.
func (r *RootSet) Release() RootStorage {
	st := RootStorage{RootSet{addrs: r.addrs[:0], epochs: r.epochs[:0], free: r.free[:0], scoped: r.scoped[:0], marks: r.marks[:0]}}
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
		r.scoped = append(r.scoped, scopedRef{h, r.epochs[idx]})
	}
	return h
}

// AddGlobal registers a root that ignores the scope discipline: it lives
// until Remove even when created inside a scope. Long-lived structures
// built inside transaction scopes use this.
func (r *RootSet) AddGlobal(a heap.Addr) Handle {
	return Handle(r.addSlot(a) + 1)
}

// addSlot stores a in the slot on top of the free list, or in a new one
// at epoch 0.
func (r *RootSet) addSlot(a heap.Addr) int32 {
	if n := len(r.free); n > 0 {
		idx := r.free[n-1]
		r.free = r.free[:n-1]
		r.addrs[idx] = a
		return idx
	}
	r.addrs = append(r.addrs, a)
	r.epochs = append(r.epochs, 0)
	return int32(len(r.addrs) - 1)
}

// live returns h's slot, or nil when h does not name a live root. It
// inlines into Set and Remove, which raise invalidHandle out of line, so
// a handle lookup is one call and no more.
func (r *RootSet) live(h Handle) *heap.Addr {
	if i := uint(h) - 1; i < uint(len(r.addrs)) && r.addrs[i] != freeSlot {
		return &r.addrs[i]
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
	if r.live(h) == nil {
		invalidHandle("Remove", h)
	}
	r.release(int(h) - 1)
}

// release frees live slot i: its epoch moves on, so no scope entry names
// it any more, and the index goes on top of the free list.
func (r *RootSet) release(i int) {
	r.addrs[i] = freeSlot
	r.epochs[i]++
	r.free = append(r.free, int32(i))
}

// Get returns the current address held by h. It must be reread after any
// potential collection point. A live handle costs one bounds check, one
// load and one compare with freeSlot; NilHandle, index -1, fails the
// bounds check and reads as Nil.
func (r *RootSet) Get(h Handle) heap.Addr {
	if i := uint(h) - 1; i < uint(len(r.addrs)) {
		if a := r.addrs[i]; a != freeSlot {
			return a
		}
	} else if h == NilHandle {
		return heap.Nil
	}
	invalidHandle("Get", h)
	return heap.Nil
}

// Set stores an address, Nil or an object's, into root h. Root stores
// need no write barrier: roots are scanned in full at every collection,
// exactly as in the paper.
func (r *RootSet) Set(h Handle, a heap.Addr) {
	s := r.live(h)
	if s == nil {
		invalidHandle("Set", h)
	}
	*s = a
}

// PushScope opens a dynamic scope: every handle Added until the matching
// PopScope is released automatically. Scopes model stack frames of the
// mutator.
func (r *RootSet) PushScope() {
	r.marks = append(r.marks, int32(len(r.scoped)))
}

// PopScope closes the innermost scope, releasing its handles in the
// order they were added. An entry whose slot has been freed since its
// Add, reused or not, carries an old epoch and is skipped.
func (r *RootSet) PopScope() {
	n := len(r.marks)
	if n == 0 {
		panic("gc: PopScope without PushScope")
	}
	start := r.marks[n-1]
	for _, sr := range r.scoped[start:] {
		if i := int(sr.h - 1); r.epochs[i] == sr.epoch {
			r.release(i)
		}
	}
	r.scoped = r.scoped[:start]
	r.marks = r.marks[:n-1]
}

// Len returns the number of live root slots.
func (r *RootSet) Len() int {
	n := 0
	for _, a := range r.addrs {
		if a != freeSlot {
			n++
		}
	}
	return n
}

// Capacity returns the size of the underlying slot table (scanned slots).
func (r *RootSet) Capacity() int { return len(r.addrs) }

// Walk calls fn for every live, non-nil root slot with its current
// address; the slot is updated to fn's return value. Collectors use this
// to trace and forward roots. Nil and freeSlot are the two addresses
// below every object's, so the one test skips nil and free slots alike
// and fn never sees the sentinel.
func (r *RootSet) Walk(fn func(a heap.Addr) heap.Addr) {
	for i, a := range r.addrs {
		if a > freeSlot {
			r.addrs[i] = fn(a)
		}
	}
}
