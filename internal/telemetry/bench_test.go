package telemetry_test

import (
	"testing"

	"beltway/internal/collectors"
	"beltway/internal/core"
	"beltway/internal/gc"
	"beltway/internal/heap"
	"beltway/internal/telemetry"
)

// These benchmarks pin the observability hot paths: a full collection's
// worth of hook invocations, and a real collection with them attached.
// Both must report 0 allocs/op — attaching telemetry may never put
// allocation pressure on a run.

// BenchmarkGCCycleHooks measures the full hook traffic of one collection
// (begin + condemned + end + one belt sample) against an attached Run.
func BenchmarkGCCycleHooks(b *testing.B) {
	run := telemetry.NewRun(nil)
	hk := run.Hooks()
	begin := gc.GCBeginInfo{Trigger: gc.TriggerHeapFull, CondemnedIncrements: 1, CondemnedBytes: 64 << 10, OccupiedBytes: 1 << 20}
	incr := gc.IncrementInfo{Belt: 0, Seq: 1, Train: -1, Bytes: 64 << 10, Frames: 1}
	end := gc.GCEndInfo{Duration: 1e4, BytesCopied: 8 << 10, ObjectsCopied: 128, RemsetEntries: 7, BarrierSlowPaths: 3, SurvivorBytes: 8 << 10}
	belt := gc.BeltStat{Belt: 0, Increments: 1, Bytes: 8 << 10, Frames: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hk.GCBegin(begin)
		hk.Condemned(incr)
		hk.GCEnd(end)
		hk.Occupancy(belt)
	}
}

// BenchmarkCollection measures a real nursery collection with telemetry
// attached, the end-to-end cost the harness pays per GC when observed
// (compare with core's BenchmarkNurseryCollection).
func BenchmarkCollection(b *testing.B) {
	o := collectors.Options{HeapBytes: 64 << 20, FrameBytes: 64 << 10}
	types := heap.NewRegistry()
	h, err := core.New(collectors.XX100(25, o), types)
	if err != nil {
		b.Fatal(err)
	}
	node := types.DefineScalar("n", 2, 2)
	run := telemetry.NewRun(h.Clock())
	h.SetHooks(run.Hooks())
	roots := h.Roots()
	for i := 0; i < 64; i++ {
		a, err := h.Alloc(node, 0)
		if err != nil {
			b.Fatal(err)
		}
		roots.Add(a)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := h.Collect(false); err != nil {
			b.Fatal(err)
		}
	}
}
