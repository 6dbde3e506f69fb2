package gc

import (
	"math/rand"
	"reflect"
	"testing"

	"beltway/internal/heap"
)

// driveRoots runs a seeded script of adds (scoped and global), scopes,
// removes and sets on r and returns every handle it was given, in order,
// followed by the table it left: each slot's handle and address, or 0
// for a free slot.
func driveRoots(r *RootSet, seed int64) []Handle {
	rng := rand.New(rand.NewSource(seed))
	var out []Handle
	depth := 0
	for step := 0; step < 3000; step++ {
		a := heap.Addr(step)*4 + 4
		switch op := rng.Intn(10); {
		case op < 3:
			out = append(out, r.Add(a))
		case op < 4:
			out = append(out, r.AddGlobal(a))
		case op < 6:
			r.PushScope()
			depth++
		case op < 8:
			if depth > 0 {
				r.PopScope()
				depth--
			}
		case len(out) > 0:
			if h := out[rng.Intn(len(out))]; r.live(h) != nil {
				if op == 8 {
					r.Remove(h)
				} else {
					r.Set(h, a)
				}
			}
		}
	}
	for h := Handle(1); int(h) <= r.Capacity(); h++ {
		if s := r.live(h); s != nil {
			out = append(out, h, Handle(*s))
		} else {
			out = append(out, 0)
		}
	}
	return out
}

// TestRootSetFromReleasedStorageMatchesFresh: handles are load-bearing, so
// a root set grown on a released set's arrays must hand out the handles a
// new one does, operation for operation, and end with the same table; the
// released set knows none of its handles any more.
func TestRootSetFromReleasedStorageMatchesFresh(t *testing.T) {
	used := NewRootSet()
	driveRoots(used, 1)
	old := used.Add(0x40)
	warm := NewRootSetFrom(used.Release())
	if got, want := driveRoots(warm, 2), driveRoots(NewRootSet(), 2); !reflect.DeepEqual(got, want) {
		t.Errorf("a root set on released storage diverged from a new one (%d and %d handles and slots)", len(got), len(want))
	}
	if used.Capacity() != 0 {
		t.Errorf("the released set still has %d slots", used.Capacity())
	}
	defer func() {
		if recover() == nil {
			t.Error("Get of a handle of the released set did not panic")
		}
	}()
	used.Get(old)
}
