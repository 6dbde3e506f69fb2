package telemetry

import (
	"beltway/internal/gc"
	"beltway/internal/stats"
)

// Metric names emitted by every Run. Pause/copy/remset distributions are
// histograms (log-2 buckets over cost units / bytes / entries); the rest
// are counters plus one occupancy gauge.
const (
	MetricCollections     = "gc_collections_total"
	MetricFullCollections = "gc_full_collections_total"
	MetricPauseCost       = "gc_pause_cost_units"
	MetricCopiedBytes     = "gc_copied_bytes"
	MetricRemsetEntries   = "gc_remset_entries"
	MetricBarrierSlow     = "gc_barrier_slow_paths_total"
	MetricCondemnedBytes  = "gc_condemned_bytes_total"
	MetricFlips           = "gc_belt_flips_total"
	MetricOOMs            = "gc_oom_total"
	MetricOccupiedBytes   = "heap_occupied_bytes"

	// Degradation metrics (Config.Degrade): emergency full-heap
	// collections taken, and allocations that would have OOMed but were
	// rescued by the degradation ladder.
	MetricEmergencyCollections = "emergency_collections_total"
	MetricDegradedAverted      = "degraded_oom_averted_total"

	// Mark-region substrate metrics: in-place survivor volume and
	// defragmentation from GCEnd, line/block utilization from the
	// per-belt occupancy stream (lines summed over mark-region belts;
	// copying belts report zero lines).
	MetricMRObjectsMarked   = "markregion_objects_marked_total"
	MetricMRBytesMarked     = "markregion_bytes_marked_total"
	MetricMRFramesEvacuated = "markregion_frames_evacuated_total"
	MetricMRLines           = "markregion_lines_total"
	MetricMRLinesUsed       = "markregion_lines_used"
)

// Run is one run's telemetry: a flight recorder and a metrics registry
// fed by gc.Hooks. Attach it with collector.SetHooks(run.Hooks()) — or
// merge its hooks with others via gc.Hooks.Merge. Hook emission is
// allocation-free and never touches the clock (it only reads Now), so a
// run with telemetry attached follows the exact same cost timeline as
// one without.
type Run struct {
	clock *stats.Clock
	rec   *FlightRecorder
	reg   *Registry

	gcOrdinal uint64 // collections seen by these hooks (1-based)

	collections     *Counter
	fullCollections *Counter
	pauseHist       *Histogram
	copiedHist      *Histogram
	remsetHist      *Histogram
	barrierSlow     *Counter
	condemnedBytes  *Counter
	flips           *Counter
	ooms            *Counter
	occupied        *Gauge
	emergencies     *Counter
	averted         *Counter

	mrMarkedObjects *Counter
	mrMarkedBytes   *Counter
	mrEvacuated     *Counter
	mrLines         *Gauge
	mrLinesUsed     *Gauge

	// server is the lazily-registered request observer (ServerObserver);
	// nil until the run serves request traffic.
	server *ServerObserver
	// policy is the lazily-registered decision observer (PolicyObserver);
	// nil until the run attaches an adaptive controller.
	policy *PolicyObserver
	// Per-belt line occupancy from the last Occupancy emission, so the
	// gauges can report whole-heap sums while the hook stream is per
	// belt. Grown on first sight of a belt; steady-state emission stays
	// allocation-free.
	mrBeltLines []float64
	mrBeltUsed  []float64
}

// NewRun builds a Run observing the given clock, with a
// DefaultRecorderCap flight recorder and the standard metric set.
func NewRun(clock *stats.Clock) *Run {
	reg := NewRegistry()
	return &Run{
		clock:           clock,
		rec:             NewFlightRecorder(0),
		reg:             reg,
		collections:     reg.NewCounter(MetricCollections, "collections performed"),
		fullCollections: reg.NewCounter(MetricFullCollections, "collections condemning the whole occupied heap"),
		pauseHist:       reg.NewHistogram(MetricPauseCost, "stop-the-world pause cost per collection, in cost units"),
		copiedHist:      reg.NewHistogram(MetricCopiedBytes, "bytes evacuated per collection"),
		remsetHist:      reg.NewHistogram(MetricRemsetEntries, "remembered-set entries examined per collection"),
		barrierSlow:     reg.NewCounter(MetricBarrierSlow, "write-barrier slow paths taken"),
		condemnedBytes:  reg.NewCounter(MetricCondemnedBytes, "bytes condemned across all collections"),
		flips:           reg.NewCounter(MetricFlips, "older-first belt flips"),
		ooms:            reg.NewCounter(MetricOOMs, "out-of-memory events"),
		occupied:        reg.NewGauge(MetricOccupiedBytes, "collected-space occupancy after the last collection"),
		emergencies:     reg.NewCounter(MetricEmergencyCollections, "emergency full-heap collections taken by the degradation ladder"),
		averted:         reg.NewCounter(MetricDegradedAverted, "allocations rescued from OOM by the degradation ladder"),
		mrMarkedObjects: reg.NewCounter(MetricMRObjectsMarked, "mark-region survivors marked in place"),
		mrMarkedBytes:   reg.NewCounter(MetricMRBytesMarked, "bytes of mark-region survivors marked in place"),
		mrEvacuated:     reg.NewCounter(MetricMRFramesEvacuated, "sparse mark-region frames defragmented through the copy path"),
		mrLines:         reg.NewGauge(MetricMRLines, "lines on mark-region belts after the last collection"),
		mrLinesUsed:     reg.NewGauge(MetricMRLinesUsed, "used lines on mark-region belts after the last collection"),
	}
}

// Recorder returns the run's flight recorder.
func (r *Run) Recorder() *FlightRecorder { return r.rec }

// Registry returns the run's metrics registry.
func (r *Run) Registry() *Registry { return r.reg }

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
			r.collections.Inc()
			if info.Full {
				r.fullCollections.Inc()
			}
			r.condemnedBytes.Add(uint64(info.CondemnedBytes))
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
			r.pauseHist.Observe(info.Duration)
			r.copiedHist.Observe(float64(info.BytesCopied))
			r.remsetHist.Observe(float64(info.RemsetEntries))
			r.barrierSlow.Add(info.BarrierSlowPaths)
			r.occupied.Set(float64(info.SurvivorBytes))
			r.mrMarkedObjects.Add(info.MRObjectsMarked)
			r.mrMarkedBytes.Add(info.MRBytesMarked)
			r.mrEvacuated.Add(info.MRFramesEvacuated)
			r.rec.Emit(Event{
				Kind: EvGCEnd, Time: r.now(), Dur: info.Duration, GC: r.gcOrdinal,
				A: info.BytesCopied,
				B: info.ObjectsCopied,
				C: info.RemsetEntries,
				D: info.BarrierSlowPaths,
			})
		},
		Occupancy: func(b gc.BeltStat) {
			if b.Belt >= 0 {
				for len(r.mrBeltLines) <= b.Belt {
					r.mrBeltLines = append(r.mrBeltLines, 0)
					r.mrBeltUsed = append(r.mrBeltUsed, 0)
				}
				r.mrBeltLines[b.Belt] = float64(b.MRLines)
				r.mrBeltUsed[b.Belt] = float64(b.MRLinesUsed)
				var lines, used float64
				for i := range r.mrBeltLines {
					lines += r.mrBeltLines[i]
					used += r.mrBeltUsed[i]
				}
				r.mrLines.Set(lines)
				r.mrLinesUsed.Set(used)
			}
			r.rec.Emit(Event{
				Kind: EvBelt, Time: r.now(), GC: r.gcOrdinal,
				A: uint64(b.Belt),
				B: uint64(b.Increments),
				C: uint64(b.Bytes),
				D: uint64(b.Frames),
			})
		},
		Flip: func(newAllocBelt, remsetEntries int) {
			r.flips.Inc()
			r.rec.Emit(Event{
				Kind: EvFlip, Time: r.now(),
				A: uint64(newAllocBelt), B: uint64(remsetEntries),
			})
		},
		OOM: func(requested, heapBytes int) {
			r.ooms.Inc()
			r.rec.Emit(Event{
				Kind: EvOOM, Time: r.now(),
				A: uint64(requested), B: uint64(heapBytes),
			})
		},
		Degraded: func(info gc.DegradeInfo) {
			switch info.Step {
			case gc.DegradeEmergencyGC:
				r.emergencies.Inc()
			case gc.DegradeRetryAverted:
				r.averted.Inc()
			}
			r.rec.Emit(Event{
				Kind: EvDegrade, Time: r.now(), GC: r.gcOrdinal,
				A: uint64(info.Step), B: uint64(info.Requested), C: uint64(info.HeapBytes),
			})
		},
	}
}

// RunSnapshot is a run's telemetry as plain data: the retained event
// stream plus the metric values. It round-trips through JSON (the
// engine's checkpoint records carry it) and merges into an Aggregator.
type RunSnapshot struct {
	Events        []Event           `json:"events,omitempty"`
	DroppedEvents uint64            `json:"dropped_events,omitempty"`
	Metrics       *RegistrySnapshot `json:"metrics,omitempty"`
}

// Snapshot captures the run's current state.
func (r *Run) Snapshot() *RunSnapshot {
	return &RunSnapshot{
		Events:        r.rec.Events(),
		DroppedEvents: r.rec.Dropped(),
		Metrics:       r.reg.Snapshot(),
	}
}
