package main

// metricDef describes one metric the benchmark prints. BENCHMARK.json
// repeats name, unit, direction and bound; a test keeps the two in step.
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: share of the parent's median it may worsen by
	// exact metrics are read off the simulated cost clock or a counter and
	// repeat bit for bit at one seed; -selfcheck holds them to zero drift
	// whatever their bound (the bound covers seed-to-seed spread only).
	exact bool
	// Per-layer only: the end-to-end metric this one should move, and the
	// workload it should move it on.
	moves string
	on    string
	what  string
}

// endToEnd are the metrics a user of the system sees, on every workload.
// A bound is at least three times the largest run-to-run spread measured
// on the reference host over ten seeds (README.md, "Why the bounds are what
// they are"). None could be 0: the driver takes its spread across seeds,
// where even the exact axis moves.
var endToEnd = []metricDef{
	{name: "host_time_cal", unit: "ratio", better: "lower", bound: 0.25,
		what: "a round's mean job wall time over the mean of its calibration-kernel runs (interleaved with the jobs in proportion to their time), median over the timed rounds of three legs"},
	{name: "host_mallocs_per_op", unit: "1/op", better: "lower", bound: 0.08,
		what: "Go heap objects allocated by the measuring process per operation (runtime.MemStats.Mallocs)"},
	{name: "host_alloc_bytes_per_op", unit: "B/op", better: "lower", bound: 0.08,
		what: "Go heap bytes allocated by the measuring process per operation (runtime.MemStats.TotalAlloc)"},
	{name: "host_peak_rss_mb", unit: "MB", better: "lower", bound: 0.20,
		what: "high-water resident set of a leg's process (VmHWM), median of three legs"},
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25,
		what: "a fresh process's set-up (min-heap searches, job list, temp dirs, kernel buffers) and warm-up round, in seconds of a host that runs the calibration kernel in 3 ms; median of three legs"},
	{name: "sim_cost_per_op", unit: "cost/op", better: "lower", bound: 0.06, exact: true,
		what: "geomean over simulated runs of Result.TotalTime per operation, cost units"},
	{name: "sim_gc_share", unit: "ratio", better: "lower", bound: 0.08, exact: true,
		what: "sum of GCTime over sum of TotalTime, cost units"},
	{name: "sim_max_pause_cost", unit: "cost", better: "lower", bound: 0.20, exact: true,
		what: "geomean over simulated runs of Result.MaxPause, cost units"},
}

func findMetric(defs []metricDef, name string) *metricDef {
	for i := range defs {
		if defs[i].name == name {
			return &defs[i]
		}
	}
	return nil
}

// metricValue is one metric as measured in one run.
type metricValue struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Exact  bool    `json:"exact,omitempty"`
}

// sampled summarises repeated readings of a host-axis metric.
func sampled(d *metricDef, values []float64) metricValue {
	q1, med, q3 := quartiles(values)
	return metricValue{Name: d.name, Unit: d.unit, N: len(values), Median: med, Q1: q1, Q3: q3, Exact: d.exact}
}

// single is a metric read once (exact counters, peak RSS).
func single(d *metricDef, v float64) metricValue {
	return metricValue{Name: d.name, Unit: d.unit, N: 1, Median: v, Q1: v, Q3: v, Exact: d.exact}
}

// Short names for the tables below.
const (
	hTime  = "host_time_cal"
	hMall  = "host_mallocs_per_op"
	sCost  = "sim_cost_per_op"
	sShare = "sim_gc_share"
	sPause = "sim_max_pause_cost"
	setupS = "setup_s"

	gcTight = "gc_tight"
	roomy   = "mutator_roomy"
	srvMix  = "server_mix"
	grid    = "grid_small_jobs"
)

// perLayer are the metrics of single layers, from the traced run. Kinds:
//
//	*.share          span self time over traced job time, net of what the
//	                 time.Now pairs themselves cost
//	*.cal            a fixed-iteration probe over the adjacent kernel run
//	*.overhead_frac  one variant of a round over another, less one
//	exact            counters and reports; repeat bit for bit at one seed
//
// moves/on say which end-to-end metric on which workload the layer metric
// should move if that layer gets faster or does less: a layer saves at
// most its share, so a bigger claim, or movement on a workload that
// bypasses the layer, is a red flag. Empty moves = informational only.
var perLayer = []metricDef{
	// core: the mutator/collector boundary and the phases of a collection.
	{name: "core.alloc.share", unit: "ratio", better: "lower", moves: hTime, on: roomy, what: "Alloc/AllocImmortal/AllocPretenured self time (collections taken out)"},
	{name: "core.alloc.calls", unit: "count", better: "lower", exact: true, moves: hTime, on: roomy, what: "allocation calls a round"},
	{name: "core.write_ref.share", unit: "ratio", better: "lower", moves: hTime, on: roomy, what: "WriteRef (store + write barrier) time"},
	{name: "core.write_ref.calls", unit: "count", better: "lower", exact: true, moves: hTime, on: roomy, what: "WriteRef calls a round"},
	{name: "core.read_ref.share", unit: "ratio", better: "lower", moves: hTime, on: roomy, what: "ReadRef time"},
	{name: "core.collect.share", unit: "ratio", better: "lower", moves: hTime, on: gcTight, what: "PreGC to PostGC: whole collections"},
	{name: "core.collect.setup.share", unit: "ratio", better: "lower", moves: hTime, on: gcTight, what: "PreGC to GCBegin: trigger, condemned set"},
	{name: "core.collect.trace.share", unit: "ratio", better: "lower", moves: hTime, on: gcTight, what: "GCBegin to GCEnd: roots, remsets, Cheney drain, sweep"},
	{name: "core.collect.finish.share", unit: "ratio", better: "lower", moves: hTime, on: gcTight, what: "GCEnd to PostGC: occupancy hooks, frame release, tuner"},
	{name: "core.collect.count", unit: "count", better: "lower", exact: true, moves: sShare, on: gcTight, what: "collections a round"},
	{name: "core.collect.full_count", unit: "count", better: "lower", exact: true, moves: sPause, on: gcTight, what: "full-heap collections a round"},
	{name: "core.collect.copied_bytes_per_alloc_kb", unit: "B/KB", better: "lower", exact: true, moves: sShare, on: gcTight, what: "bytes copied per KB allocated"},
	{name: "core.barrier.slow_per_kstore", unit: "1/kstore", better: "lower", exact: true, moves: sCost, on: roomy, what: "barrier slow paths per 1000 pointer stores"},
	// workload + vm + gc: everything in a job that is not a core.* span.
	{name: "mutator.self.share", unit: "ratio", better: "lower", moves: hTime, on: roomy, what: "job time outside every core.* span: workload bodies, vm handles, root scopes (moves " + hMall + " too)"},
	{name: "gc.roots.scanned_per_collection", unit: "count", better: "lower", exact: true, moves: hTime, on: gcTight, what: "root slots scanned per collection; feeds core.collect.trace.share"},
	// remset
	{name: "remset.inserts_per_kstore", unit: "1/kstore", better: "lower", exact: true, moves: hTime, on: roomy, what: "remset inserts per 1000 pointer stores; feeds core.write_ref.share (db rows)"},
	{name: "remset.entries_per_collection", unit: "count", better: "lower", exact: true, moves: hTime, on: gcTight, what: "remset entries examined per collection; feeds core.collect.trace.share"},
	{name: "remset.insert_distinct.cal", unit: "ratio", better: "lower", moves: hTime, on: roomy, what: "200k cold Table.Insert"},
	{name: "remset.insert_duplicate.cal", unit: "ratio", better: "lower", moves: hTime, on: roomy, what: "1M duplicate Table.Insert (the dedup hit path)"},
	{name: "remset.collect_roots.cal", unit: "ratio", better: "lower", moves: hTime, on: gcTight, what: "CollectRoots over 200 tables of 4096 entries"},
	// heap
	{name: "heap.copy_object.cal", unit: "ratio", better: "lower", moves: hTime, on: gcTight, what: "500k CopyObject of 64 bytes"},
	{name: "heap.walk_objects.cal", unit: "ratio", better: "lower", moves: hTime, on: gcTight, what: "20k WalkObjects over 100 objects"},
	{name: "heap.map_unmap.cal", unit: "ratio", better: "lower", moves: hTime, on: gcTight, what: "300k MapFrame+UnmapFrame"},
	{name: "heap.frames_mapped_per_alloc_mb", unit: "1/MB", better: "lower", exact: true, moves: hTime, on: gcTight, what: "frames mapped per MB allocated"},
	// markregion
	{name: "markregion.collect.share", unit: "ratio", better: "lower", moves: hTime, on: gcTight, what: "core.collect.share over the mark-region jobs only (immix, -mr)"},
	{name: "markregion.marked_bytes_per_alloc_kb", unit: "B/KB", better: "lower", exact: true, moves: sShare, on: gcTight, what: "bytes marked in place per KB allocated, mark-region jobs"},
	{name: "markregion.line_mark.cal", unit: "ratio", better: "lower", moves: hTime, on: gcTight, what: "2000 x Mark of every object of a 64 KB frame"},
	{name: "markregion.sweep.cal", unit: "ratio", better: "lower", moves: hTime, on: gcTight, what: "2000 x Sweep of that frame"},
	// stats, mmu
	{name: "stats.clock_advance.cal", unit: "ratio", better: "lower", moves: hTime, on: roomy, what: "3M Clock.Advance"},
	{name: "mmu.curve.cal", unit: "ratio", better: "lower", moves: hTime, on: roomy, what: "Result.MMU(24) over 2000 pauses"},
	// telemetry
	{name: "telemetry.overhead_frac", unit: "ratio", better: "lower", moves: hTime, on: gcTight, what: "round with Env.Telemetry over round without, less one: the observer's published cost"},
	{name: "telemetry.emit_event.cal", unit: "ratio", better: "lower", moves: hTime, on: gcTight, what: "2M FlightRecorder.Emit"},
	// trace (cmd/tracebench): informational
	{name: "trace.record.overhead_frac", unit: "ratio", better: "lower", what: "jess body with a trace recorder attached over without, less one"},
	{name: "trace.replay.cal", unit: "ratio", better: "lower", what: "trace.Replay of the recorded jess body"},
	{name: "trace.serialize.cal", unit: "ratio", better: "lower", what: "5 x WriteTo+ReadFrom of that trace"},
	// server
	{name: "server.phase.steady.share", unit: "ratio", better: "lower", moves: hTime, on: srvMix, what: "RunBatch time in the steady phase (90% reads), of the traced jobs' raw time"},
	{name: "server.phase.flip.share", unit: "ratio", better: "lower", moves: hTime, on: srvMix, what: "RunBatch time in the flip phase (10% reads, reshuffled keys)"},
	{name: "server.phase.growth.share", unit: "ratio", better: "lower", moves: hTime, on: srvMix, what: "RunBatch time in the growth phase"},
	{name: "server.reads", unit: "count", better: "higher", exact: true, moves: hTime, on: srvMix, what: "read requests a round"},
	{name: "server.writes", unit: "count", better: "higher", exact: true, moves: hTime, on: srvMix, what: "write requests a round"},
	{name: "server.paused_frac", unit: "ratio", better: "lower", exact: true, moves: sPause, on: srvMix, what: "requests that overlapped a collection"},
	// End-to-end for server_mix alone; the driver's contract wants every
	// end-to-end metric on every workload, so they are listed here.
	{name: "server.latency_p999_cost", unit: "cost", better: "lower", exact: true, moves: sPause, on: srvMix, what: "sim_latency_p999_cost: geomean over set-ups of request p99.9 latency"},
	{name: "server.latency_max_cost", unit: "cost", better: "lower", exact: true, moves: sPause, on: srvMix, what: "sim_latency_max_cost: geomean over set-ups of the slowest request"},
	{name: "server.slo_pass_frac", unit: "ratio", better: "higher", exact: true, moves: sPause, on: srvMix, what: "slo_pass_frac: set-ups meeting " + sloSpec},
	// policy, shard
	{name: "policy.overhead_frac", unit: "ratio", better: "lower", moves: hTime, on: srvMix, what: "fixed:25 under the slo controller over static fixed:25, less one"},
	{name: "policy.decisions", unit: "count", better: "lower", exact: true, moves: sPause, on: srvMix, what: "knob updates the controller made"},
	{name: "shard.m2_speedup", unit: "ratio", better: "higher", moves: hTime, on: srvMix, what: "one mutator over two at equal requests (2 x flat wall / 2-mutator wall, raw)"},
	{name: "shard.makespan_cost", unit: "cost", better: "lower", exact: true, moves: sCost, on: srvMix, what: "simulated makespan of the 2-mutator job"},
	// harness
	{name: "harness.run_one.overhead_frac", unit: "ratio", better: "lower", moves: hTime, on: grid, what: "round through RunOne/RunServer over the same round driven directly, less one"},
	{name: "harness.find_min_heap.cal", unit: "ratio", better: "lower", moves: setupS, on: gcTight, what: "set-up's FindMinHeap wall over the mean kernel run inside it"},
	{name: "harness.min_heap_probes", unit: "count", better: "lower", exact: true, moves: setupS, on: gcTight, what: "runs the set-up searches made (calls of the ConfigFunc)"},
	{name: "harness.marshal_payload.cal", unit: "ratio", better: "lower", moves: hTime, on: grid, what: "2000 x MarshalRunPayload of a jess result"},
	// engine
	{name: "engine.exec_share", unit: "ratio", better: "higher", moves: hTime, on: grid, what: "fig9 suite: sum of Record.DurationMS over workers x suite wall"},
	{name: "engine.noop_job.cal", unit: "ratio", better: "lower", moves: hTime, on: grid, what: "300 checkpointed no-op jobs"},
	{name: "engine.procpool_roundtrip.cal", unit: "ratio", better: "lower", moves: hTime, on: grid, what: "200 echo round trips over ProcPool/ServeProc"},
	// experiments, farm
	{name: "experiments.fig9.share", unit: "ratio", better: "lower", moves: hTime, on: grid, what: "fig9 suite's share of the round"},
	{name: "farm.run.share", unit: "ratio", better: "lower", moves: hTime, on: grid, what: "farm.Run's share of the round"},
	{name: "farm.verify.share", unit: "ratio", better: "lower", moves: hTime, on: grid, what: "farm.Verify(replay 2)'s share of the round"},
	{name: "farm.report.share", unit: "ratio", better: "lower", moves: hTime, on: grid, what: "farm.Report's share of the round"},
	{name: "farm.exec_share", unit: "ratio", better: "higher", moves: hTime, on: grid, what: "sum of the checkpoint's farm record durations over workers x farm.Run wall"},
	{name: "farm.minheap_share", unit: "ratio", better: "lower", moves: hTime, on: grid, what: "the same for its farm-minheap records: the sequential search before the grid"},
	{name: "farm.pure_run_share", unit: "ratio", better: "higher", moves: hTime, on: grid, what: "the farm's specs run in process (farm.ExecuteSpec) over workers x farm.Run wall: what is not plumbing"},
	{name: "farm.ipc_overhead_frac", unit: "ratio", better: "lower", moves: hTime, on: grid, what: "farm record durations over the same specs run in process, kernel to kernel, less one"},
	{name: "farm.ledger_append.cal", unit: "ratio", better: "lower", moves: hTime, on: grid, what: "20 x Ledger.Append, fsync included"},
	{name: "farm.worker_spawns", unit: "count", better: "lower", exact: true, moves: hTime, on: grid, what: "worker processes one farm.Run started"},
	{name: "farm.worker_peak_rss_mb", unit: "MB", better: "lower", what: "largest worker process's peak resident set"},
	{name: "tracing.overhead_frac", unit: "ratio", better: "lower", what: "traced round over untraced round, less one"},
}
