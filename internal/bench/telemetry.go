package bench

import (
	"testing"

	"beltway/internal/collectors"
	"beltway/internal/gc"
	"beltway/internal/telemetry"
)

// The telemetry suite pins the observability hot paths: event emission
// into the flight recorder and a full collection's worth of hook
// invocations. All of them must report 0 allocs/op — attaching
// telemetry may never put allocation pressure on a run.

// TelemetryEmitEvent measures one flight-recorder emission (ring write +
// sequence stamp).
func TelemetryEmitEvent(b *testing.B) {
	rec := telemetry.NewFlightRecorder(0)
	e := telemetry.Event{Kind: telemetry.EvGCEnd, Time: 1e6, Dur: 1e3, GC: 1, A: 4096, B: 32, C: 7, D: 2}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec.Emit(e)
	}
}

func telemetryCycleFixtures() (gc.GCBeginInfo, gc.IncrementInfo, gc.GCEndInfo, gc.BeltStat) {
	return gc.GCBeginInfo{Trigger: gc.TriggerHeapFull, CondemnedIncrements: 1, CondemnedBytes: 64 << 10, OccupiedBytes: 1 << 20},
		gc.IncrementInfo{Belt: 0, Seq: 1, Train: -1, Bytes: 64 << 10, Frames: 1},
		gc.GCEndInfo{Duration: 1e4, BytesCopied: 8 << 10, ObjectsCopied: 128, RemsetEntries: 7, BarrierSlowPaths: 3, SurvivorBytes: 8 << 10},
		gc.BeltStat{Belt: 0, Increments: 1, Bytes: 8 << 10, Frames: 1}
}

// TelemetryGCCycleHooks measures the full hook traffic of one collection
// (begin + condemned + end + one belt sample) against an attached Run.
func TelemetryGCCycleHooks(b *testing.B) {
	run := telemetry.NewRun(nil)
	hk := run.Hooks()
	begin, incr, end, belt := telemetryCycleFixtures()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hk.GCBegin(begin)
		hk.Condemned(incr)
		hk.GCEnd(end)
		hk.Occupancy(belt)
	}
}

// TelemetryCollection measures a real nursery collection with telemetry
// attached, the end-to-end cost the harness pays per GC when observed
// (compare with the core suite's NurseryCollection).
func TelemetryCollection(b *testing.B) {
	o := collectors.Options{HeapBytes: 64 << 20, FrameBytes: 64 << 10}
	h, node := newHeap(b, collectors.XX100(25, o))
	run := telemetry.NewRun(h.Clock())
	h.SetHooks(run.Hooks())
	roots := h.Roots()
	for i := 0; i < 64; i++ {
		roots.Add(alloc(b, h, node))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := h.Collect(false); err != nil {
			b.Fatal(err)
		}
	}
}
