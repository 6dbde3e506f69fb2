package core_test

import (
	"errors"
	"strings"
	"testing"

	"beltway/internal/collectors"
	"beltway/internal/core"
	"beltway/internal/gc"
	"beltway/internal/heap"
)

// Direct coverage for the four bare OOM return paths: each test drives
// one path to exhaustion and asserts the structured gc.OOMError fields
// and that the OOM hook fires exactly once per event.

// oomHeap builds a direct (validator-free) heap with an OOM-counting
// hook attached.
func oomHeap(t *testing.T, cfg core.Config) (*core.Heap, *heap.Registry, *int) {
	t.Helper()
	types := heap.NewRegistry()
	h, err := core.New(cfg, types)
	if err != nil {
		t.Fatal(err)
	}
	oomCount := new(int)
	h.SetHooks(gc.Hooks{OOM: func(requested, heapBytes int) {
		*oomCount++
		if heapBytes != cfg.HeapBytes {
			t.Errorf("OOM hook heapBytes = %d, want %d", heapBytes, cfg.HeapBytes)
		}
	}})
	return h, types, oomCount
}

// fillRooted allocates rooted objects until the heap refuses, returning
// the terminal error (exactly one OOM event).
func fillRooted(t *testing.T, h *core.Heap, node *heap.TypeDesc) error {
	t.Helper()
	for i := 0; i < 100000; i++ {
		a, err := h.Alloc(node, 0)
		if err != nil {
			return err
		}
		h.Roots().AddGlobal(a)
	}
	t.Fatal("heap never filled")
	return nil
}

// assertOOM unwraps err into *gc.OOMError and checks the common fields.
func assertOOM(t *testing.T, err error, wantRequested, wantHeapBytes int, wantDetail string) *gc.OOMError {
	t.Helper()
	if !errors.Is(err, gc.ErrOutOfMemory) {
		t.Fatalf("error %v does not unwrap to ErrOutOfMemory", err)
	}
	var oe *gc.OOMError
	if !errors.As(err, &oe) {
		t.Fatalf("error %T is not *gc.OOMError", err)
	}
	if oe.Requested != wantRequested {
		t.Errorf("Requested = %d, want %d", oe.Requested, wantRequested)
	}
	if oe.HeapBytes != wantHeapBytes {
		t.Errorf("HeapBytes = %d, want %d", oe.HeapBytes, wantHeapBytes)
	}
	if !strings.Contains(oe.Detail, wantDetail) {
		t.Errorf("Detail = %q, want substring %q", oe.Detail, wantDetail)
	}
	return oe
}

func TestOOMAllocNoProgress(t *testing.T) {
	cfg := collectors.XX(25, testOptions(64))
	h, types, oomCount := oomHeap(t, cfg)
	node := types.DefineScalar("n", 2, 2)

	err := fillRooted(t, h, node)
	assertOOM(t, err, node.Size(0), cfg.HeapBytes, "no progress after repeated collections")
	if *oomCount != 1 {
		t.Errorf("OOM hook fired %d times, want 1", *oomCount)
	}
}

func TestOOMNothingCollectible(t *testing.T) {
	// The top belt's permanent reservation leaves the allocation belt
	// less than a frame of the usable heap. The first allocation finds no
	// frame to map while every belt is still empty, so there is nothing
	// to condemn.
	cfg := collectors.XX100(25, testOptions(64))
	cfg.Belts[len(cfg.Belts)-1].ReserveFrac = 0.99
	h, types, oomCount := oomHeap(t, cfg)
	node := types.DefineScalar("n", 2, 2)

	_, err := h.Alloc(node, 0)
	assertOOM(t, err, 0, cfg.HeapBytes, "heap full with nothing collectible")
	if *oomCount != 1 {
		t.Errorf("OOM hook fired %d times, want 1", *oomCount)
	}
	if h.Clock().Counters.Collections != 0 {
		t.Errorf("%d collections ran on empty belts, want 0", h.Clock().Counters.Collections)
	}
}

func TestOOMPretenuredNoSpace(t *testing.T) {
	cfg := collectors.XX100(25, testOptions(64))
	h, types, oomCount := oomHeap(t, cfg)
	node := types.DefineScalar("n", 2, 2)

	if err := fillRooted(t, h, node); err == nil {
		t.Fatal("expected fill to end in OOM")
	}
	before := *oomCount
	_, err := h.AllocPretenured(node, 0)
	assertOOM(t, err, node.Size(0), cfg.HeapBytes, "pretenured allocation found no space")
	if got := *oomCount - before; got != 1 {
		t.Errorf("OOM hook fired %d times for the pretenured allocation, want 1", got)
	}
}
