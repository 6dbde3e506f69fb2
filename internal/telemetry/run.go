package telemetry

import (
	"beltway/internal/gc"
	"beltway/internal/stats"
)

// Run is one run's telemetry: a flight recorder fed by gc.Hooks and by
// the server and policy observers. Attach it with
// collector.SetHooks(run.Hooks()) — or merge its hooks with others via
// gc.Hooks.Merge. Emission is allocation-free and never touches the
// clock (it only reads Now), so a run with telemetry attached follows the
// exact same cost timeline as one without. A run's counts are not kept
// here: they are the clock's (stats.Counters, the pause list); a gc-end
// event restates its collection's share of them.
type Run struct {
	clock *stats.Clock
	rec   *FlightRecorder

	gcOrdinal uint64 // collections seen by these hooks (1-based)
}

// NewRun builds a Run observing the given clock, with a
// DefaultRecorderCap flight recorder.
func NewRun(clock *stats.Clock) *Run {
	return &Run{clock: clock, rec: NewFlightRecorder(0)}
}

// Recorder returns the run's flight recorder.
func (r *Run) Recorder() *FlightRecorder { return r.rec }

// Release hands the run's recorder ring to the next run in the process
// (FlightRecorder.Release). Snapshot first.
func (r *Run) Release() { r.rec.Release() }

// now reads the cost clock (0 when the run has no clock attached).
func (r *Run) now() float64 {
	if r.clock == nil {
		return 0
	}
	return r.clock.Now()
}

// Hooks returns the gc.Hooks that feed this run. The returned closures
// are built once here; invoking them performs no allocation.
func (r *Run) Hooks() gc.Hooks {
	return gc.Hooks{
		GCBegin: func(info gc.GCBeginInfo) {
			r.gcOrdinal++
			full := uint64(0)
			if info.Full {
				full = 1
			}
			r.rec.Emit(Event{
				Kind: EvGCBegin, Time: r.now(), GC: r.gcOrdinal,
				A: uint64(info.Trigger) | full<<8,
				B: uint64(info.CondemnedIncrements),
				C: uint64(info.CondemnedBytes),
				D: uint64(info.OccupiedBytes),
			})
		},
		Condemned: func(in gc.IncrementInfo) {
			r.rec.Emit(Event{
				Kind: EvCondemned, Time: r.now(), GC: r.gcOrdinal,
				A: uint64(in.Belt),
				B: uint64(in.Seq) | uint64(in.Train+1)<<32,
				C: uint64(in.Bytes),
				D: uint64(in.Frames),
			})
		},
		GCEnd: func(info gc.GCEndInfo) {
			r.rec.Emit(Event{
				Kind: EvGCEnd, Time: r.now(), Dur: info.Duration, GC: r.gcOrdinal,
				A: info.BytesCopied,
				B: info.ObjectsCopied,
				C: info.RemsetEntries,
				D: info.BarrierSlowPaths,
			})
		},
		Occupancy: func(b gc.BeltStat) {
			r.rec.Emit(Event{
				Kind: EvBelt, Time: r.now(), GC: r.gcOrdinal,
				A: uint64(b.Belt),
				B: uint64(b.Increments),
				C: uint64(b.Bytes),
				D: uint64(b.Frames),
			})
		},
		Flip: func(newAllocBelt, remsetEntries int) {
			r.rec.Emit(Event{
				Kind: EvFlip, Time: r.now(),
				A: uint64(newAllocBelt), B: uint64(remsetEntries),
			})
		},
		OOM: func(requested, heapBytes int) {
			r.rec.Emit(Event{
				Kind: EvOOM, Time: r.now(),
				A: uint64(requested), B: uint64(heapBytes),
			})
		},
		Degraded: func(info gc.DegradeInfo) {
			r.rec.Emit(Event{
				Kind: EvDegrade, Time: r.now(), GC: r.gcOrdinal,
				A: uint64(info.Step), B: uint64(info.Requested), C: uint64(info.HeapBytes),
			})
		},
	}
}

// RunSnapshot is a run's telemetry as plain data: the retained event
// stream and how much of it the ring dropped. It round-trips through
// JSON (the engine's checkpoint records carry it).
type RunSnapshot struct {
	Events        []Event `json:"events,omitempty"`
	DroppedEvents uint64  `json:"dropped_events,omitempty"`
}

// Snapshot captures the run's current state.
func (r *Run) Snapshot() *RunSnapshot {
	return &RunSnapshot{Events: r.rec.Events(), DroppedEvents: r.rec.Dropped()}
}
