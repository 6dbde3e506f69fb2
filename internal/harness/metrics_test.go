package harness

import (
	"strconv"
	"strings"
	"testing"

	"beltway/internal/collectors"
	"beltway/internal/policy"
	"beltway/internal/server"
	"beltway/internal/stats"
	"beltway/internal/telemetry"
	"beltway/internal/workload"
)

// TestEventsRestateTheResult is the conservation between the two things
// a run still leaves behind: the Result (read off the clocks) and the
// event stream (what the hooks saw). Over the golden-digest
// configurations, with Env.Telemetry on:
//
//   - single lane, every retained event (the 512-event ring wraps on
//     these runs, so the check is per event, not per total): each
//     EvGCEnd's Dur is Result.Pauses[GC-1].Duration() bit for bit, the
//     ordinals are contiguous and the last is Result.Collections;
//   - a row roomy enough not to wrap, and the two-lane row's merged
//     stream (sized not to wrap either; sums add across lanes): the
//     events' totals are the Result's counts.
func TestEventsRestateTheResult(t *testing.T) {
	sc := server.Scaled(0.1)
	rows := []struct {
		name   string
		bench  string // "" is the server workload at 4x estimated live
		heap   int
		tweak  func(*Env)
		totals bool // the ring must not have wrapped: check sums too
	}{
		{name: "bench flat", bench: "jess", heap: 128 << 10},
		{name: "bench policy throughput", bench: "jess", heap: 128 << 10,
			tweak: func(e *Env) { e.Policy = "throughput" }},
		{name: "server"},
		{name: "bench roomy policy", bench: "javac", heap: 1 << 20, totals: true,
			tweak: func(e *Env) { e.Policy = "throughput:target=0.05" }},
		{name: "bench mutators 2", bench: "javac", heap: 1 << 20, totals: true,
			tweak: func(e *Env) { e.Mutators = 2 }},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			env := EnvForScale(0.1)
			env.Telemetry = true
			if row.tweak != nil {
				row.tweak(&env)
			}
			spec, heap := "25.25.100", row.heap
			if row.bench == "" {
				spec = "25.25"
				heap = (4*sc.EstLiveBytes()/env.FrameBytes + 1) * env.FrameBytes
			}
			cfg, err := collectors.Parse(spec, env.Options(heap))
			if err != nil {
				t.Fatal(err)
			}
			var res *Result
			if row.bench == "" {
				res, err = RunServer(cfg, sc, goldenSLO, env)
			} else {
				res, err = RunOne(cfg, workload.Get(row.bench), env)
			}
			if err != nil {
				t.Fatal(err)
			}
			if res.Incomplete() || res.Collections == 0 || res.Telemetry == nil {
				t.Fatalf("not a completed, collecting, observed run: %+v", res)
			}
			events := res.Telemetry.Events

			if res.Mutators == 0 {
				var prev uint64
				for _, e := range events {
					if e.Kind != telemetry.EvGCEnd {
						continue
					}
					if prev != 0 && e.GC != prev+1 {
						t.Fatalf("gc-end ordinals jump from %d to %d", prev, e.GC)
					}
					prev = e.GC
					if want := res.Pauses[e.GC-1].Duration(); e.Dur != want {
						t.Errorf("gc %d: event says the pause took %v, the clock's pause list %v", e.GC, e.Dur, want)
					}
				}
				if prev != res.Collections {
					t.Errorf("last retained gc-end is collection %d of %d", prev, res.Collections)
				}
			}
			if !row.totals {
				if res.Telemetry.DroppedEvents == 0 {
					t.Error("the ring did not wrap: this row can check totals too")
				}
				return
			}

			if res.Telemetry.DroppedEvents != 0 {
				t.Fatalf("the ring wrapped (%d dropped): size the row roomier", res.Telemetry.DroppedEvents)
			}
			var ends, fulls, decisions, copied, remset, slow uint64
			for _, e := range events {
				switch e.Kind {
				case telemetry.EvGCBegin:
					fulls += e.A >> 8
				case telemetry.EvGCEnd:
					ends++
					copied += e.A
					remset += e.C
					slow += e.D
				case telemetry.EvPolicy:
					decisions++
				}
			}
			c := res.Counters
			if ends != res.Collections || ends != c.Collections {
				t.Errorf("%d gc-end events, Result.Collections %d, Counters.Collections %d", ends, res.Collections, c.Collections)
			}
			if fulls != c.FullCollections {
				t.Errorf("%d gc-begin events with the full bit, Counters.FullCollections %d", fulls, c.FullCollections)
			}
			if copied != c.BytesCopied {
				t.Errorf("gc-end events copied %d bytes, Counters.BytesCopied %d", copied, c.BytesCopied)
			}
			if remset != c.RemsetEntriesGC {
				t.Errorf("gc-end events examined %d remset entries, Counters.RemsetEntriesGC %d", remset, c.RemsetEntriesGC)
			}
			// A gc-end carries the slow paths since the one before it, so
			// the events hold the counter as it stood at the last
			// collection; the mutator may have taken more since.
			if slow == 0 || slow > c.BarrierSlowPaths {
				t.Errorf("gc-end events saw %d barrier slow paths, Counters.BarrierSlowPaths %d", slow, c.BarrierSlowPaths)
			}
			if res.Policy != nil {
				if res.Policy.Decisions == 0 || decisions != uint64(res.Policy.Decisions) {
					t.Errorf("%d policy events, Policy.Decisions %d", decisions, res.Policy.Decisions)
				}
			} else if decisions != 0 {
				t.Errorf("%d policy events from a run with no controller", decisions)
			}
		})
	}
}

// TestWriteMetricsGolden pins the -metrics-out text of a two-collector
// result set byte for byte: every stats.Counters field by its mechanical
// name, summed per collector; the pooled pause list's exact quantiles;
// the one server report's distribution; the decision count.
func TestWriteMetricsGolden(t *testing.T) {
	a1 := syntheticResult(false)
	a1.Counters = stats.Counters{BytesAllocated: 1000, Collections: 7, FullCollections: 1, MRLinesReclaimed: 3}
	a2 := syntheticResult(true)
	a2.Counters = stats.Counters{BytesAllocated: 24, Collections: 2, RemsetEntriesGC: 5, CardsScanned: 9}
	a2.Pauses = []stats.Pause{{Start: 10, End: 7340}}
	a2.Server.Overall.Latency.Mean = 1250.5
	a2.Server.Verdicts = []server.Verdict{{Pass: true}, {Pass: false}}
	a2.Policy = &policy.Summary{Decisions: 4}
	b := syntheticResult(false)
	b.Collector = `Appel "q"`
	b.Counters = stats.Counters{Collections: 3}
	b.Pauses = nil

	var got strings.Builder
	if err := WriteMetrics(&got, []*Result{b, a1, nil, a2}); err != nil {
		t.Fatal(err)
	}
	counter := func(field string, appel, beltway uint64) string {
		name := "gc_" + field + "_total"
		return "# TYPE " + name + " counter\n" +
			name + `{collector="Appel \"q\""} ` + strconv.FormatUint(appel, 10) + "\n" +
			name + `{collector="Beltway 25.25"} ` + strconv.FormatUint(beltway, 10) + "\n"
	}
	want := counter("bytes_allocated", 0, 1024) +
		counter("objects_allocated", 0, 0) +
		counter("pointer_stores", 0, 0) +
		counter("barrier_slow_paths", 0, 0) +
		counter("remset_inserts", 0, 0) +
		counter("remset_entries_gc", 0, 5) +
		counter("bytes_copied", 0, 0) +
		counter("objects_copied", 0, 0) +
		counter("slots_scanned", 0, 0) +
		counter("roots_scanned", 0, 0) +
		counter("collections", 3, 9) +
		counter("full_collections", 0, 1) +
		counter("frames_mapped", 0, 0) +
		counter("frames_unmapped", 0, 0) +
		counter("boot_bytes_scanned", 0, 0) +
		counter("page_fault_bytes", 0, 0) +
		counter("cards_scanned", 0, 9) +
		counter("pretenured_bytes", 0, 0) +
		counter("mr_objects_marked", 0, 0) +
		counter("mr_bytes_marked", 0, 0) +
		counter("mr_lines_reclaimed", 0, 3) +
		counter("mr_frames_swept", 0, 0) +
		counter("mr_frames_evacuated", 0, 0) +
		`# TYPE gc_pause_cost_units summary
gc_pause_cost_units{collector="Appel \"q\"",quantile="0.5"} 0
gc_pause_cost_units{collector="Appel \"q\"",quantile="0.95"} 0
gc_pause_cost_units{collector="Appel \"q\"",quantile="0.99"} 0
gc_pause_cost_units{collector="Appel \"q\"",quantile="1"} 0
gc_pause_cost_units_sum{collector="Appel \"q\""} 0
gc_pause_cost_units_count{collector="Appel \"q\""} 0
gc_pause_cost_units{collector="Beltway 25.25",quantile="0.5"} 733000
gc_pause_cost_units{collector="Beltway 25.25",quantile="0.95"} 2.932e+06
gc_pause_cost_units{collector="Beltway 25.25",quantile="0.99"} 2.932e+06
gc_pause_cost_units{collector="Beltway 25.25",quantile="1"} 2.932e+06
gc_pause_cost_units_sum{collector="Beltway 25.25"} 5.13833e+06
gc_pause_cost_units_count{collector="Beltway 25.25"} 4
# TYPE server_request_latency_cost_units summary
server_request_latency_cost_units{collector="Beltway 25.25",quantile="0.5"} 440
server_request_latency_cost_units{collector="Beltway 25.25",quantile="0.95"} 0
server_request_latency_cost_units{collector="Beltway 25.25",quantile="0.99"} 2200
server_request_latency_cost_units{collector="Beltway 25.25",quantile="0.999"} 733000
server_request_latency_cost_units{collector="Beltway 25.25",quantile="1"} 2.2e+06
server_request_latency_cost_units_sum{collector="Beltway 25.25"} 1.2505e+06
server_request_latency_cost_units_count{collector="Beltway 25.25"} 1000
# TYPE server_slo_violations_total counter
server_slo_violations_total{collector="Beltway 25.25"} 1
# TYPE policy_decisions_total counter
policy_decisions_total{collector="Appel \"q\""} 0
policy_decisions_total{collector="Beltway 25.25"} 4
`
	if got.String() != want {
		t.Errorf("metrics text drifted:\ngot:\n%s\nwant:\n%s", got.String(), want)
	}

	// The quantile lines are the pause columns of the results table, to
	// the bit: the table formats what SummarizePauses returned, and the
	// file holds the shortest decimal that parses back to the same float.
	ps := stats.SummarizePauses(append(append([]stats.Pause(nil), a1.Pauses...), a2.Pauses...))
	if promFloat(ps.P99) != "2.932e+06" || promFloat(ps.Median) != "733000" {
		t.Errorf("the golden text above no longer holds SummarizePauses' quantiles: p50 %v p99 %v", ps.Median, ps.P99)
	}

	// Several server reports under one collector: counts and sums add,
	// the quantiles — which would have to be pooled from raw latencies a
	// checkpoint does not keep — are left out.
	got.Reset()
	if err := WriteMetrics(&got, []*Result{a2, a2}); err != nil {
		t.Fatal(err)
	}
	if text := got.String(); strings.Contains(text, `server_request_latency_cost_units{`) ||
		!strings.Contains(text, "\nserver_request_latency_cost_units_count{collector=\"Beltway 25.25\"} 2000\n") ||
		!strings.Contains(text, "\nserver_slo_violations_total{collector=\"Beltway 25.25\"} 2\n") {
		t.Errorf("two reports under one collector render as:\n%s", text)
	}
}

// TestWriteCounters: a struct of integer counts renders as one unlabelled
// counter per field (cmd/farm -metrics-out over farm.Summary).
func TestWriteCounters(t *testing.T) {
	var got strings.Builder
	err := WriteCounters(&got, "farm", struct{ Jobs, WorkerCrashes int }{Jobs: 45, WorkerCrashes: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := "# TYPE farm_jobs_total counter\nfarm_jobs_total 45\n" +
		"# TYPE farm_worker_crashes_total counter\nfarm_worker_crashes_total 1\n"
	if got.String() != want {
		t.Errorf("got:\n%s\nwant:\n%s", got.String(), want)
	}
}
