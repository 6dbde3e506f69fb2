package telemetry

import (
	"testing"

	"beltway/internal/collectors"
	"beltway/internal/core"
	"beltway/internal/gc"
	"beltway/internal/heap"
)

// TestMarkRegionMetricsFromHooks drives the Run's hooks the way a
// mark-region collection would. The substrate's volumes (objects and
// bytes marked in place, frames evacuated) are stats.Counters fields and
// reach -metrics-out from there; what the hooks leave in the recorder is
// the same event stream a copying collection leaves, belt by belt.
func TestMarkRegionMetricsFromHooks(t *testing.T) {
	r := NewRun(nil)
	hk := r.Hooks()
	hk.GCBegin(gc.GCBeginInfo{Trigger: gc.TriggerHeapFull, CondemnedBytes: 4096, OccupiedBytes: 8192})
	hk.GCEnd(gc.GCEndInfo{Duration: 100, BytesCopied: 256,
		MRObjectsMarked: 40, MRBytesMarked: 1600, MRFramesEvacuated: 2, SurvivorBytes: 2048})
	hk.Occupancy(gc.BeltStat{Belt: 0, Increments: 1, Bytes: 512, Frames: 1})
	hk.Occupancy(gc.BeltStat{Belt: 1, Increments: 2, Bytes: 1536, Frames: 2})

	ev := r.Recorder().Events()
	if len(ev) != 4 {
		t.Fatalf("recorded %d events, want 4", len(ev))
	}
	if end := ev[1]; end.Kind != EvGCEnd || end.Dur != 100 || end.A != 256 {
		t.Errorf("gc-end event wrong: %+v", end)
	}
	for i, want := range []Event{
		{Kind: EvBelt, Seq: 3, GC: 1, A: 0, B: 1, C: 512, D: 1},
		{Kind: EvBelt, Seq: 4, GC: 1, A: 1, B: 2, C: 1536, D: 2},
	} {
		if got := ev[2+i]; got != want {
			t.Errorf("belt event %d = %+v, want %+v", i, got, want)
		}
	}
}

// TestMarkRegionMetricsEndToEnd attaches a Run to a real Immix collector:
// a collection leaves its begin/end/belt events in the recorder, and the
// in-place survivor volume on the clock's counters — its only copy.
func TestMarkRegionMetricsEndToEnd(t *testing.T) {
	types := heap.NewRegistry()
	h, err := core.New(collectors.Immix(collectors.Options{HeapBytes: 1 << 20, FrameBytes: 4096}), types)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRun(h.Clock())
	h.SetHooks(r.Hooks())
	node := types.DefineScalar("n", 2, 2)
	roots := h.Roots()
	for i := 0; i < 200; i++ {
		a, err := h.Alloc(node, 0)
		if err != nil {
			t.Fatal(err)
		}
		if i%4 == 0 {
			roots.Add(a)
		}
	}
	if err := h.Collect(true); err != nil {
		t.Fatal(err)
	}
	if h.Clock().Counters.MRObjectsMarked == 0 {
		t.Error("no objects marked in place by a real Immix collection")
	}
	kinds := map[EventKind]int{}
	for _, e := range r.Recorder().Events() {
		kinds[e.Kind]++
		if e.Kind == EvGCEnd && e.Dur != h.Clock().Pauses()[0].Duration() {
			t.Errorf("gc-end dur %v, clock pause %v", e.Dur, h.Clock().Pauses()[0].Duration())
		}
	}
	if kinds[EvGCBegin] != 1 || kinds[EvGCEnd] != 1 || kinds[EvBelt] == 0 {
		t.Errorf("event kinds after one collection: %v", kinds)
	}
}

// The occupancy hook must stay allocation-free whichever substrate the
// belt is on.
func TestMarkRegionOccupancyZeroAlloc(t *testing.T) {
	r := NewRun(nil)
	hk := r.Hooks()
	b0 := gc.BeltStat{Belt: 0, Increments: 1, Bytes: 512, Frames: 1}
	b1 := gc.BeltStat{Belt: 1, Increments: 2, Bytes: 1024, Frames: 2}
	if n := testing.AllocsPerRun(1000, func() {
		hk.Occupancy(b0)
		hk.Occupancy(b1)
	}); n != 0 {
		t.Errorf("Occupancy allocates %v/op", n)
	}
}
