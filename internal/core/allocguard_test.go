package core_test

import (
	"testing"

	"beltway/internal/collectors"
	"beltway/internal/telemetry"
)

// The write barrier is the mutator's hottest instrumented path; these
// guards pin both its fast path (uninteresting store) and its
// duplicate-insert slow path at zero heap allocations, so the flattened
// substrate's wins cannot silently regress.

func TestWriteBarrierFastPathZeroAlloc(t *testing.T) {
	o := collectors.Options{HeapBytes: 64 << 20, FrameBytes: 1 << 20}
	h, node := benchHeap(t, collectors.XX100(25, o))
	a1, err := h.Alloc(node, 0)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := h.Alloc(node, 0) // same frame: never remembered
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		h.WriteRef(a1, 0, a2)
	}); n != 0 {
		t.Errorf("barrier fast path allocates %v times per op, want 0", n)
	}
}

// An allocation that fits the open window is a bump and a header: it must
// not reach the Go allocator, and must not leave the window.
func TestWindowHitAllocZeroAlloc(t *testing.T) {
	o := collectors.Options{HeapBytes: 64 << 20, FrameBytes: 1 << 20}
	h, node := benchHeap(t, collectors.XX100(25, o))
	mustAlloc(t, h, node) // maps the first frame and opens the window
	mapped := h.Clock().Counters.FramesMapped
	if n := testing.AllocsPerRun(100, func() {
		if !h.WindowOpen() {
			t.Fatal("the window is closed: not the path this guard is about")
		}
		mustAlloc(t, h, node)
	}); n != 0 {
		t.Errorf("a window-hit Alloc allocates %v times per op, want 0", n)
	}
	if got := h.Clock().Counters.FramesMapped; got != mapped {
		t.Fatalf("%d frames mapped during the guard: not window hits", got-mapped)
	}
}

func TestWriteBarrierSlowPathDuplicateZeroAlloc(t *testing.T) {
	o := collectors.Options{HeapBytes: 64 << 20, FrameBytes: 64 << 10}
	h, node := benchHeap(t, collectors.XX100(25, o))
	roots := h.Roots()
	old := roots.Add(mustAlloc(t, h, node))
	// Promote it out of the nursery so stores into the nursery are
	// interesting.
	if err := h.Collect(false); err != nil {
		t.Fatal(err)
	}
	if err := h.Collect(false); err != nil {
		t.Fatal(err)
	}
	young := roots.Add(mustAlloc(t, h, node))
	oa, ya := roots.Get(old), roots.Get(young)
	h.WriteRef(oa, 0, ya) // first store: the one real insert
	if n := testing.AllocsPerRun(100, func() {
		h.WriteRef(oa, 0, ya) // duplicate remset entry
	}); n != 0 {
		t.Errorf("barrier slow path (duplicate) allocates %v times per op, want 0", n)
	}
}

// TestHotPathsZeroAllocWithTelemetry re-runs the barrier guard with a
// telemetry.Run attached: observability must not put allocations (or any
// other work) on the mutator's fast path.
func TestHotPathsZeroAllocWithTelemetry(t *testing.T) {
	o := collectors.Options{HeapBytes: 64 << 20, FrameBytes: 1 << 20}
	h, node := benchHeap(t, collectors.XX100(25, o))
	tele := telemetry.NewRun(h.Clock())
	h.SetHooks(tele.Hooks())
	roots := h.Roots()
	r1 := roots.Add(mustAlloc(t, h, node))
	r2 := roots.Add(mustAlloc(t, h, node))
	// A collection first, so the hooks have demonstrably fired.
	if err := h.Collect(false); err != nil {
		t.Fatal(err)
	}
	if tele.Recorder().Total() == 0 {
		t.Fatal("hooks attached but no events recorded")
	}
	a1, a2 := roots.Get(r1), roots.Get(r2) // survivors share a frame: fast path
	if n := testing.AllocsPerRun(100, func() {
		h.WriteRef(a1, 0, a2)
	}); n != 0 {
		t.Errorf("barrier fast path with telemetry allocates %v times per op, want 0", n)
	}
}
