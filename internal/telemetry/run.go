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
	rec   FlightRecorder

	gcOrdinal uint64 // collections seen by these hooks (1-based)

	// The hook closures and the observers, made once for the Run.
	hooks  gc.Hooks
	server ServerObserver
	policy PolicyObserver
}

// NewRun builds a Run observing the given clock, with a
// DefaultRecorderCap flight recorder.
func NewRun(clock *stats.Clock) *Run {
	r := new(Run)
	r.Reset(clock)
	return r
}

// Reset makes r the Run NewRun(clock) builds, recording into r's own
// ring. A Run kept from one run to the next (a shard lane's) is reset
// onto the next run's clock; its hook closures, made once, stay valid.
func (r *Run) Reset(clock *stats.Clock) {
	r.clock, r.gcOrdinal = clock, 0
	r.rec.reset(DefaultRecorderCap)
}

// Recorder returns the run's flight recorder.
func (r *Run) Recorder() *FlightRecorder { return &r.rec }

// now reads the cost clock (0 when the run has no clock attached).
func (r *Run) now() float64 {
	if r.clock == nil {
		return 0
	}
	return r.clock.Now()
}

// Hooks returns the gc.Hooks that feed this run. The closures are built
// on the first call and kept with the Run; invoking them performs no
// allocation.
func (r *Run) Hooks() gc.Hooks {
	if r.hooks.GCBegin == nil {
		r.hooks = r.newHooks()
	}
	return r.hooks
}

// newHooks builds the closures Hooks returns.
func (r *Run) newHooks() gc.Hooks {
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
