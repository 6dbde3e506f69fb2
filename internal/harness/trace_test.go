package harness

import (
	"reflect"
	"strings"
	"testing"

	"beltway/internal/collectors"
	"beltway/internal/trace"
	"beltway/internal/workload"
)

// TestReplayReproducesRecordedRun: recording measures what Bench
// measures, and replaying the trace under the configuration and Env it
// was recorded in reproduces that Result — counters, pauses, total and GC
// time, every field — for every benchmark of the suite, on a
// boot-scanning and a remembered-set collector. A Mutator operation that
// charges the clock and is not recorded fails it on the benchmark that
// calls it (RefIsNil was one, on raytrace).
func TestReplayReproducesRecordedRun(t *testing.T) {
	env := EnvForScale(0.1)
	for _, bench := range workload.All() {
		min, err := FindMinHeap(AppelConfig(env), bench, env)
		if err != nil {
			t.Fatal(err)
		}
		heapBytes := min * 2 / env.FrameBytes * env.FrameBytes
		for _, spec := range []string{"appel", "25.25.100"} {
			name := bench.Name + " on " + spec
			cfg, err := collectors.Parse(spec, env.Options(heapBytes))
			if err != nil {
				t.Fatal(err)
			}
			want, err := RunOne(cfg, bench, env)
			if err != nil {
				t.Fatal(err)
			}
			if want.Incomplete() || want.Collections == 0 || len(want.Pauses) == 0 {
				t.Fatalf("%s: the run to reproduce measures nothing: %+v", name, want)
			}
			tr := trace.NewTrace()
			recorded, err := Run(cfg, Record(bench, tr), env)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(recorded, want) {
				t.Errorf("%s: recording changed the measurement:\nrecorded %v %+v\nbench    %v %+v",
					name, recorded.TotalTime, recorded.Counters, want.TotalTime, want.Counters)
			}
			replayed, err := Run(cfg, Replay(bench.Name, tr), env)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(replayed, want) {
				t.Errorf("%s: replay differs from the run it was recorded from:\nreplayed %v %+v\nbench    %v %+v",
					name, replayed.TotalTime, replayed.Counters, want.TotalTime, want.Counters)
			}
		}
	}
}

// TestTraceWorkloadsStaySingleLaneAndStatic: Record and Replay reject at
// run time what ValidateTraceEnv rejects at flag-parse time.
func TestTraceWorkloadsStaySingleLaneAndStatic(t *testing.T) {
	env := EnvForScale(0.1)
	cfg := AppelConfig(env)(128 << 10)
	bench := workload.Get("jess")
	for _, tc := range []struct {
		name string
		set  func(*Env)
		want string
	}{
		{"two lanes", func(e *Env) { e.Mutators = 2 }, "-mutators 2"},
		{"adaptive", func(e *Env) { e.Policy = "slo" }, "-adapt slo"},
	} {
		bad := env
		tc.set(&bad)
		if err := ValidateTraceEnv(bad); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: ValidateTraceEnv = %v, want an error naming %s", tc.name, err, tc.want)
		}
		for _, w := range []Workload{Record(bench, trace.NewTrace()), Replay("jess", trace.NewTrace())} {
			if _, err := Run(cfg, w, bad); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%s: Run(%T) = %v, want an error naming %s", tc.name, w, err, tc.want)
			}
		}
	}
	if err := ValidateTraceEnv(env); err != nil {
		t.Errorf("plain env rejected: %v", err)
	}
}
