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
// time, every field — on a boot-scanning and a remembered-set collector.
func TestReplayReproducesRecordedRun(t *testing.T) {
	env := EnvForScale(0.1)
	bench := workload.Get("jess")
	for _, spec := range []string{"appel", "25.25.100"} {
		cfg, err := collectors.Parse(spec, env.Options(128<<10))
		if err != nil {
			t.Fatal(err)
		}
		want, err := RunOne(cfg, bench, env)
		if err != nil {
			t.Fatal(err)
		}
		if want.Incomplete() || want.Collections == 0 || len(want.Pauses) == 0 {
			t.Fatalf("%s: the run to reproduce measures nothing: %+v", spec, want)
		}
		tr := trace.NewTrace()
		recorded, err := Run(cfg, Record(bench, tr), env)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(recorded, want) {
			t.Errorf("%s: recording changed the measurement:\nrecorded %+v\nbench    %+v", spec, recorded.Counters, want.Counters)
		}
		replayed, err := Run(cfg, Replay(bench.Name, tr), env)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(replayed, want) {
			t.Errorf("%s: replay differs from the run it was recorded from:\nreplayed %+v\nbench    %+v", spec, replayed.Counters, want.Counters)
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
