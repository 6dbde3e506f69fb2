package harness

import (
	"reflect"
	"strings"
	"sync"
	"testing"

	"beltway/internal/engine"
	"beltway/internal/telemetry"
	"beltway/internal/workload"
)

// checkEventStream verifies one run's flight-recorder stream is coherent:
// sequence numbers are consecutive (no interleaving from another run's
// recorder) and every collection's begin/end events pair up in order.
func checkEventStream(t *testing.T, label string, s *telemetry.RunSnapshot) {
	t.Helper()
	if s == nil {
		t.Fatalf("%s: no telemetry snapshot", label)
	}
	if len(s.Events) == 0 {
		t.Fatalf("%s: empty event stream", label)
	}
	wantFirst := s.DroppedEvents + 1
	if s.Events[0].Seq != wantFirst {
		t.Errorf("%s: first seq %d, want %d", label, s.Events[0].Seq, wantFirst)
	}
	var openGC uint64
	for i, e := range s.Events {
		if e.Seq != wantFirst+uint64(i) {
			t.Fatalf("%s: seq %d at position %d, want %d (interleaved streams?)",
				label, e.Seq, i, wantFirst+uint64(i))
		}
		switch e.Kind {
		case telemetry.EvGCBegin:
			if openGC != 0 {
				t.Errorf("%s: gc %d began before gc %d ended", label, e.GC, openGC)
			}
			openGC = e.GC
		case telemetry.EvGCEnd:
			// The stream head may hold an end whose begin was overwritten.
			if openGC != 0 && e.GC != openGC {
				t.Errorf("%s: gc-end for %d inside gc %d", label, e.GC, openGC)
			}
			openGC = 0
		}
	}
}

// TestRunOneTelemetry checks RunOne's telemetry attachment: the stream is
// coherent and the measurement itself is bit-identical with telemetry on
// or off (TestEventsRestateTheResult holds the events to the Result).
func TestRunOneTelemetry(t *testing.T) {
	env := testEnv()
	cfg := xx100Func(25, env)(1 << 20)
	b := workload.Get("jess")

	plain, err := RunOne(cfg, b, env)
	if err != nil {
		t.Fatal(err)
	}
	env.Telemetry = true
	res, err := RunOne(cfg, b, env)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Telemetry != nil {
		t.Error("telemetry snapshot present without Env.Telemetry")
	}
	checkEventStream(t, "jess", res.Telemetry)

	// Observing must not perturb: the measurement is the same timeline.
	if res.TotalTime != plain.TotalTime || res.GCTime != plain.GCTime ||
		res.Counters != plain.Counters || len(res.Pauses) != len(plain.Pauses) {
		t.Errorf("telemetry changed the measurement:\nwith:    %+v\nwithout: %+v",
			res.Counters, plain.Counters)
	}
}

// TestGenerationalTelemetry checks the generational baselines (Appel et
// al. are presets of the same engine) emit the same event stream as the
// Beltway configurations.
func TestGenerationalTelemetry(t *testing.T) {
	env := testEnv()
	env.Telemetry = true
	res, err := RunOne(AppelConfig(env)(1<<20), workload.Get("db"), env)
	if err != nil {
		t.Fatal(err)
	}
	if res.Collections == 0 {
		t.Fatal("run performed no collections; pick a smaller heap")
	}
	checkEventStream(t, "appel", res.Telemetry)
	var begins, ends, belts uint64
	for _, e := range res.Telemetry.Events {
		switch e.Kind {
		case telemetry.EvGCBegin:
			begins++
		case telemetry.EvGCEnd:
			ends++
		case telemetry.EvBelt:
			belts++
		}
	}
	if ends == 0 || belts == 0 {
		t.Errorf("generational run emitted %d gc-ends, %d belt events", ends, belts)
	}
	if res.Telemetry.DroppedEvents == 0 && begins != ends {
		t.Errorf("unpaired collections: %d begins, %d ends", begins, ends)
	}
	if last := res.Telemetry.Events[len(res.Telemetry.Events)-1]; last.GC != res.Counters.Collections {
		t.Errorf("last event belongs to collection %d, the clock counted %d", last.GC, res.Counters.Collections)
	}
}

// telemetrySpecs is the small cross-product used by the parallel test.
func telemetrySpecs(env Env) []RunSpec {
	var specs []RunSpec
	for _, bn := range []string{"jess", "db"} {
		b := workload.Get(bn)
		for _, heap := range []int{1 << 20, 3 << 19} {
			specs = append(specs,
				RunSpec{
					Key:      engine.Key{Experiment: "tele", Collector: "Appel", Benchmark: bn, HeapBytes: heap},
					Make:     AppelConfig(env),
					Workload: Bench(b), Env: env,
				},
				RunSpec{
					Key:      engine.Key{Experiment: "tele", Collector: "Beltway 25.25.100", Benchmark: bn, HeapBytes: heap},
					Make:     xx100Func(25, env),
					Workload: Bench(b), Env: env,
				})
		}
	}
	return specs
}

// TestParallelTelemetryMatchesSerial runs the same telemetry-enabled
// sweep through the engine with four workers and with one, and requires
// (a) every run's event stream to be internally coherent — per-run
// recorders must not observe each other's collections — and equal to the
// serial run's, and (b) the -metrics-out text of the two sweeps to be the
// same bytes (-jobs 1 against -jobs 4). Run under -race this also
// exercises the concurrent OnRecord path.
func TestParallelTelemetryMatchesSerial(t *testing.T) {
	env := testEnv()
	env.Telemetry = true

	sweep := func(workers int) ([]*Result, string) {
		t.Helper()
		var mu sync.Mutex
		settled := 0
		x := NewExecutor(engine.Config{
			Workers: workers,
			OnRecord: func(engine.Record) {
				mu.Lock()
				settled++
				mu.Unlock()
			},
		})
		defer x.Close()
		specs := telemetrySpecs(env)
		results, err := x.RunAll(specs)
		if err != nil {
			t.Fatal(err)
		}
		if settled != len(specs) {
			t.Errorf("%d workers: OnRecord saw %d records, want %d", workers, settled, len(specs))
		}
		var text strings.Builder
		if err := WriteMetrics(&text, results); err != nil {
			t.Fatal(err)
		}
		return results, text.String()
	}

	parRes, parText := sweep(4)
	serRes, serText := sweep(1)

	for i, r := range parRes {
		if r.Failure != "" {
			t.Fatalf("run %d failed: %s", i, r.Failure)
		}
		label := r.Collector + "/" + r.Benchmark
		checkEventStream(t, label, r.Telemetry)
		if !reflect.DeepEqual(r.Telemetry, serRes[i].Telemetry) {
			t.Errorf("%s: parallel telemetry differs from serial", label)
		}
	}
	if parText != serText {
		t.Errorf("parallel metrics text differs from serial:\npar:\n%s\nser:\n%s", parText, serText)
	}
	for _, want := range []string{
		`gc_collections_total{collector="Appel"} `,
		`gc_collections_total{collector="Beltway 25.25.100"} `,
		`gc_pause_cost_units{collector="Appel",quantile="0.99"} `,
		`gc_pause_cost_units{collector="Beltway 25.25.100",quantile="0.99"} `,
	} {
		if !strings.Contains(parText, "\n"+want) {
			t.Errorf("metrics text has no %q line", want)
		}
	}
}

// TestResultsTablePercentiles checks the results table renders pause
// percentiles, the same ones with telemetry attached and without.
func TestResultsTablePercentiles(t *testing.T) {
	env := testEnv()
	env.Telemetry = true
	res, err := RunOne(xx100Func(25, env)(1<<20), workload.Get("jess"), env)
	if err != nil {
		t.Fatal(err)
	}
	tbl := ResultsTable([]*Result{res})
	out := tbl.String()
	for _, col := range []string{"p50(ms)", "p95(ms)", "p99(ms)", "max(ms)"} {
		if !strings.Contains(out, col) {
			t.Errorf("results table missing column %q:\n%s", col, out)
		}
	}
	res.Telemetry = nil
	tbl2 := ResultsTable([]*Result{res})
	if tbl2.String() != out {
		t.Errorf("table without telemetry differs:\n%s\nwith:\n%s", tbl2.String(), out)
	}
	// A failed run renders as dashes, not a panic.
	fail := &Result{Collector: "X", Benchmark: "y", Failure: "panic: boom"}
	failTbl := ResultsTable([]*Result{fail})
	if !strings.Contains(failTbl.String(), "-") {
		t.Error("failed run should render as dashes")
	}
}
