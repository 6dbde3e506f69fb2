package gc

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
	"testing/quick"

	"beltway/internal/heap"
)

func TestRootSetAddGetSetRemove(t *testing.T) {
	r := NewRootSet()
	h := r.Add(0x100)
	if r.Get(h) != 0x100 {
		t.Error("Get after Add wrong")
	}
	r.Set(h, 0x200)
	if r.Get(h) != 0x200 {
		t.Error("Get after Set wrong")
	}
	if r.Len() != 1 {
		t.Errorf("Len = %d", r.Len())
	}
	r.Remove(h)
	if r.Len() != 0 {
		t.Errorf("Len = %d after Remove", r.Len())
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Get of removed handle did not panic")
			}
		}()
		r.Get(h)
	}()
}

func TestNilHandle(t *testing.T) {
	r := NewRootSet()
	if r.Get(NilHandle) != heap.Nil {
		t.Error("NilHandle must read as Nil")
	}
}

func TestHandleReuse(t *testing.T) {
	r := NewRootSet()
	h1 := r.Add(0x100)
	r.Remove(h1)
	h2 := r.Add(0x200)
	if h1 != h2 {
		t.Errorf("freed handle not reused: %d then %d", h1, h2)
	}
	if r.Capacity() != 1 {
		t.Errorf("Capacity = %d, want 1", r.Capacity())
	}
}

func TestScopes(t *testing.T) {
	r := NewRootSet()
	outer := r.Add(0x10)
	r.PushScope()
	inner := r.Add(0x20)
	r.PushScope()
	innermost := r.Add(0x30)
	if r.Len() != 3 {
		t.Fatalf("Len = %d", r.Len())
	}
	r.PopScope()
	if r.Len() != 2 {
		t.Errorf("Len = %d after inner pop", r.Len())
	}
	_ = innermost
	r.PopScope()
	if r.Len() != 1 {
		t.Errorf("Len = %d after outer pop", r.Len())
	}
	if r.Get(outer) != 0x10 {
		t.Error("global root damaged by scope pops")
	}
	_ = inner
}

func TestScopeWithExplicitRemove(t *testing.T) {
	r := NewRootSet()
	r.PushScope()
	h := r.Add(0x40)
	r.Remove(h) // removed early; PopScope must not double-free
	r.PopScope()
	if r.Len() != 0 {
		t.Errorf("Len = %d", r.Len())
	}
}

// TestPopScopeSkipsReusedSlot is the regression test for a bug found by
// differential fuzzing (internal/check testdata fuzzcheck-880c6bc): a
// handle explicitly Removed inside a scope frees its slot index, the
// free list hands the same index — hence the same Handle value — to a
// later AddGlobal, and PopScope, still holding the stale entry, used to
// release the reused global root out from under the mutator.
func TestPopScopeSkipsReusedSlot(t *testing.T) {
	r := NewRootSet()
	r.PushScope()
	h := r.Add(0x40)
	r.Remove(h)
	g := r.AddGlobal(0x80) // reuses h's slot: same Handle value
	if g != h {
		t.Fatalf("precondition: expected slot reuse, got %d vs %d", g, h)
	}
	r.PopScope()
	if got := r.Get(g); got != 0x80 {
		t.Fatalf("global root killed by stale scope entry: Get = %#x", got)
	}
	// Same incarnation hazard with a scoped re-add in an outer scope.
	r2 := NewRootSet()
	r2.PushScope() // outer
	r2.PushScope() // inner
	a := r2.Add(0x10)
	r2.Remove(a)
	r2.PopScope() // inner scope: must not touch the freed slot
	b := r2.Add(0x20)
	if b != a {
		t.Fatalf("precondition: expected slot reuse, got %d vs %d", b, a)
	}
	if got := r2.Get(b); got != 0x20 {
		t.Fatalf("outer-scope root damaged: Get = %#x", got)
	}
	r2.PopScope() // outer: releases b's incarnation
	if r2.Len() != 0 {
		t.Fatalf("Len = %d after all scopes closed", r2.Len())
	}
}

// Get, Set and Remove raise their panic out of line (invalidHandle) so
// that the live-slot lookup inlines into them. Every way a handle can
// fail to name a live root must still panic, under the message it always
// had, and every way it can name one must not.
func TestInvalidHandlePanics(t *testing.T) {
	ops := []struct {
		name string
		do   func(r *RootSet, h Handle)
	}{
		{"Get", func(r *RootSet, h Handle) { r.Get(h) }},
		{"Set", func(r *RootSet, h Handle) { r.Set(h, 0x44) }},
		{"Remove", func(r *RootSet, h Handle) { r.Remove(h) }},
	}
	// Each state builds a root set and returns the handle to try on it.
	states := []struct {
		name  string
		build func(r *RootSet) Handle
		valid bool
	}{
		{"never minted", func(r *RootSet) Handle { r.Add(0x40); return 7 }, false},
		{"negative", func(r *RootSet) Handle { r.Add(0x40); return -3 }, false},
		{"removed", func(r *RootSet) Handle { h := r.Add(0x40); r.Remove(h); return h }, false},
		{"released by PopScope", func(r *RootSet) Handle {
			r.PushScope()
			h := r.Add(0x40)
			r.PopScope()
			return h
		}, false},
		{"stale epoch released by PopScope", func(r *RootSet) Handle {
			// The scope's entry for the slot is stale (removed, slot reused
			// by a scoped root of the same scope): PopScope releases the
			// new incarnation exactly once, and the handle is dead after.
			r.PushScope()
			h := r.Add(0x40)
			r.Remove(h)
			if g := r.Add(0x80); g != h {
				panic("precondition: slot not reused")
			}
			r.PopScope()
			return h
		}, false},
		{"live", func(r *RootSet) Handle { return r.Add(0x40) }, true},
		{"live in an open scope", func(r *RootSet) Handle { r.PushScope(); return r.Add(0x40) }, true},
		{"stale epoch reused by a global", func(r *RootSet) Handle {
			r.PushScope()
			h := r.Add(0x40)
			r.Remove(h)
			r.AddGlobal(0x80) // same slot, same Handle value, next epoch
			r.PopScope()      // must skip the stale entry
			return h
		}, true},
	}
	panicOf := func(fn func()) (r any) {
		defer func() { r = recover() }()
		fn()
		return nil
	}
	for _, st := range states {
		for _, op := range ops {
			r := NewRootSet()
			h := st.build(r)
			got := panicOf(func() { op.do(r, h) })
			want := any(fmt.Sprintf("gc: %s of invalid handle %d", op.name, h))
			if st.valid {
				want = nil
			}
			if got != want {
				t.Errorf("%s of a handle %s (%d): panic %v, want %v", op.name, st.name, h, got, want)
			}
		}
	}
	// NilHandle is Get's one exception: Nil, no panic. Set and Remove of
	// it are invalid like any other dead handle.
	r := NewRootSet()
	if got := panicOf(func() {
		if a := r.Get(NilHandle); a != heap.Nil {
			t.Errorf("Get(NilHandle) = %v", a)
		}
	}); got != nil {
		t.Errorf("Get(NilHandle) panics: %v", got)
	}
	if got := panicOf(func() { r.Set(NilHandle, 4) }); got != "gc: Set of invalid handle 0" {
		t.Errorf("Set(NilHandle): panic %v", got)
	}
	if got := panicOf(func() { r.Remove(NilHandle) }); got != "gc: Remove of invalid handle 0" {
		t.Errorf("Remove(NilHandle): panic %v", got)
	}
}

func TestPopScopeUnderflowPanics(t *testing.T) {
	r := NewRootSet()
	defer func() {
		if recover() == nil {
			t.Error("PopScope on empty stack did not panic")
		}
	}()
	r.PopScope()
}

func TestWalkVisitsOnlyLiveNonNil(t *testing.T) {
	r := NewRootSet()
	a := r.Add(0x100)
	r.Add(heap.Nil)
	dead := r.Add(0x300)
	r.Remove(dead)

	seen := 0
	r.Walk(func(addr heap.Addr) heap.Addr {
		seen++
		return addr + 4 // simulate forwarding
	})
	if seen != 1 {
		t.Errorf("Walk visited %d slots, want 1", seen)
	}
	if r.Get(a) != 0x104 {
		t.Error("Walk did not update the slot")
	}
}

// TestSetNilKeepsTheRootLive: a root holding Nil is a live root, not a
// free slot. It keeps its handle, is not handed out again, is released by
// its scope, and Walk skips it as it skips free slots: fn is called with
// neither Nil nor the free-slot sentinel.
func TestSetNilKeepsTheRootLive(t *testing.T) {
	r := NewRootSet()
	r.PushScope()
	h := r.Add(0x100)
	r.Set(h, heap.Nil)
	if r.live(h) == nil || r.Get(h) != heap.Nil || r.Len() != 1 {
		t.Fatalf("after Set(h, Nil): live %v, Get %v, Len %d", r.live(h) != nil, r.Get(h), r.Len())
	}
	if g := r.AddGlobal(0x200); g == h {
		t.Fatalf("the slot of a root holding Nil was handed out again as %d", g)
	}
	dead := r.AddGlobal(0x300)
	r.Remove(dead)
	r.Walk(func(a heap.Addr) heap.Addr {
		if a == heap.Nil || a == freeSlot {
			t.Errorf("Walk handed fn %v", a)
		}
		return a
	})
	r.Set(h, 0x400)
	if r.Get(h) != 0x400 {
		t.Errorf("Get after Set = %v", r.Get(h))
	}
	r.Set(h, heap.Nil)
	r.PopScope()
	if r.live(h) != nil || r.Len() != 1 {
		t.Errorf("PopScope did not release the root holding Nil: live %v, Len %d", r.live(h) != nil, r.Len())
	}
}

func TestOOMErrorUnwraps(t *testing.T) {
	err := error(&OOMError{Requested: 64, HeapBytes: 1024, Detail: "x"})
	if !errors.Is(err, ErrOutOfMemory) {
		t.Error("OOMError does not unwrap to ErrOutOfMemory")
	}
	if err.Error() == "" {
		t.Error("empty error message")
	}
}

// nestedRootSet is the root set as it was before the flat scope stack:
// one slice per open scope, three parallel slot arrays. It is kept here
// as the reference model — recorded traces, oracle fingerprints and farm
// ledger digests all contain Handle values, so the flat representation
// must hand out exactly the handles this one does, operation for
// operation.
type nestedRootSet struct {
	slots  []heap.Addr
	inUse  []bool
	epochs []uint32
	free   []int32
	scoped [][]scopedRef
}

func (r *nestedRootSet) add(a heap.Addr, global bool) Handle {
	var idx int32
	if n := len(r.free); n > 0 {
		idx = r.free[n-1]
		r.free = r.free[:n-1]
		r.slots[idx] = a
		r.inUse[idx] = true
		r.epochs[idx]++
	} else {
		r.slots = append(r.slots, a)
		r.inUse = append(r.inUse, true)
		r.epochs = append(r.epochs, 0)
		idx = int32(len(r.slots) - 1)
	}
	h := Handle(idx + 1)
	if n := len(r.scoped); n > 0 && !global {
		r.scoped[n-1] = append(r.scoped[n-1], scopedRef{h, r.epochs[idx]})
	}
	return h
}

func (r *nestedRootSet) valid(h Handle) bool {
	return h >= 1 && int(h) <= len(r.slots) && r.inUse[h-1]
}

func (r *nestedRootSet) remove(h Handle) {
	r.slots[h-1] = heap.Nil
	r.inUse[h-1] = false
	r.free = append(r.free, int32(h)-1)
}

func (r *nestedRootSet) popScope() {
	n := len(r.scoped)
	for _, sr := range r.scoped[n-1] {
		if r.valid(sr.h) && r.epochs[sr.h-1] == sr.epoch {
			r.remove(sr.h)
		}
	}
	r.scoped = r.scoped[:n-1]
}

// live returns the model's live roots as handle -> address.
func (r *nestedRootSet) live() map[Handle]heap.Addr {
	m := map[Handle]heap.Addr{}
	for i, u := range r.inUse {
		if u {
			m[Handle(i+1)] = r.slots[i]
		}
	}
	return m
}

// TestScopeDisciplineProperty drives random add / add-global /
// push / pop / remove / set / walk / release sequences through the
// RootSet and through the nested-slice model side by side, and requires
// the same Handle from every Add, the same roots visited by every Walk
// and the same live roots (handles and addresses) after every operation.
// Removes pick among handles ever returned, live or stale, so
// remove-inside-scope followed by slot reuse is exercised constantly. A
// release swaps the set for one grown on its storage and the model for a
// new one: the two must go on handing out the same handles.
func TestScopeDisciplineProperty(t *testing.T) {
	prop := func(ops []uint8) bool {
		r := NewRootSet()
		m := &nestedRootSet{}
		var issued []Handle
		depth := 0
		check := func(step int, op uint8) bool {
			want := m.live()
			if r.Len() != len(want) || r.Capacity() != len(m.slots) {
				t.Logf("step %d (op %d): Len/Capacity = %d/%d, model %d/%d",
					step, op, r.Len(), r.Capacity(), len(want), len(m.slots))
				return false
			}
			for h := Handle(1); int(h) <= len(m.slots); h++ {
				a, ok := want[h]
				if (r.live(h) != nil) != ok || ok && r.Get(h) != a {
					t.Logf("step %d (op %d): handle %d diverged from model", step, op, h)
					return false
				}
			}
			return true
		}
		for step, op := range ops {
			a := heap.Addr(step)*4 + 4
			switch {
			case op < 120:
				global := op >= 90
				var got Handle
				if global {
					got = r.AddGlobal(a)
				} else {
					got = r.Add(a)
				}
				if want := m.add(a, global); got != want {
					t.Logf("step %d: Add returned handle %d, model %d", step, got, want)
					return false
				}
				issued = append(issued, got)
			case op < 160:
				r.PushScope()
				m.scoped = append(m.scoped, nil)
				depth++
			case op < 200:
				if depth > 0 {
					r.PopScope()
					m.popScope()
					depth--
				}
			case op < 235:
				if len(issued) > 0 {
					h := issued[int(op)*7%len(issued)]
					if m.valid(h) {
						r.Remove(h)
						m.remove(h)
					} else if r.live(h) != nil {
						t.Logf("step %d: handle %d live but dead in model", step, h)
						return false
					}
				}
			case op < 245:
				if len(issued) > 0 {
					if h := issued[int(op)*5%len(issued)]; m.valid(h) {
						if op%2 == 0 {
							a = heap.Nil
						}
						r.Set(h, a)
						m.slots[h-1] = a
					}
				}
			case op < 252:
				// A collection forwards every live, non-nil root, in slot
				// order, and never sees a free slot.
				var got, want []heap.Addr
				r.Walk(func(a heap.Addr) heap.Addr {
					got = append(got, a)
					return a + 8
				})
				for i, u := range m.inUse {
					if u && m.slots[i] != heap.Nil {
						want = append(want, m.slots[i])
						m.slots[i] += 8
					}
				}
				if !reflect.DeepEqual(got, want) {
					t.Logf("step %d: Walk visited %v, model %v", step, got, want)
					return false
				}
			default:
				r = NewRootSetFrom(r.Release())
				m = &nestedRootSet{}
				issued, depth = nil, 0
			}
			if !check(step, op) {
				return false
			}
		}
		for ; depth > 0; depth-- {
			r.PopScope()
			m.popScope()
		}
		return check(len(ops), 0)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
