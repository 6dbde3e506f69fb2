package gc

import (
	"testing"

	"beltway/internal/heap"
)

// Root scopes are the mutator's stack frames: opened and closed around
// every few allocations, so once the scope stack and slot table have
// reached a run's depth they must cost the Go allocator nothing.

func TestScopeCycleZeroAlloc(t *testing.T) {
	r := NewRootSet()
	cycle := func() {
		for depth := 0; depth < 3; depth++ {
			r.PushScope()
			for i := 0; i < 8; i++ {
				r.Add(heap.Addr(i*4 + 4))
			}
		}
		for depth := 0; depth < 3; depth++ {
			r.PopScope()
		}
	}
	cycle() // reach steady-state capacity
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Errorf("PushScope/8xAdd/PopScope three deep allocates %v times per cycle, want 0", n)
	}
	if r.Len() != 0 {
		t.Errorf("Len = %d after balanced scopes", r.Len())
	}
}

// Release inside a scope, reuse of the slot by a global, then PopScope:
// the PR 4 fuzz regression's shape, as a steady-state cycle.
func TestReleaseInScopeSlotReuseZeroAlloc(t *testing.T) {
	r := NewRootSet()
	cycle := func() {
		r.PushScope()
		h := r.Add(0x40)
		r.Add(0x44)
		r.Remove(h)
		g := r.AddGlobal(0x80)
		if g != h {
			t.Fatalf("slot not reused: %d then %d", h, g)
		}
		r.PopScope()
		if r.Get(g) != 0x80 {
			t.Fatal("global root killed by stale scope entry")
		}
		r.Remove(g)
	}
	cycle()
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Errorf("release-in-scope + slot reuse allocates %v times per cycle, want 0", n)
	}
}

// Handle lookup is the first thing every mutator operation does: Get and
// Set of a live handle, and Get of the nil handle, allocate nothing.
func TestRootLookupZeroAlloc(t *testing.T) {
	r := NewRootSet()
	r.PushScope()
	h, g := r.Add(0x40), r.AddGlobal(0x80)
	if n := testing.AllocsPerRun(100, func() {
		r.Set(h, r.Get(g)+4)
		r.Set(g, r.Get(h)+r.Get(NilHandle))
	}); n != 0 {
		t.Errorf("Get/Set of live handles allocates %v times per op, want 0", n)
	}
}
