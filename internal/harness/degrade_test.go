package harness

import (
	"testing"

	"beltway/internal/collectors"
	"beltway/internal/gc"
	"beltway/internal/telemetry"
	"beltway/internal/workload"
)

// degradeSteps counts a run's retained EvDegrade events by ladder step.
func degradeSteps(r *Result) map[gc.DegradeStep]int {
	steps := map[gc.DegradeStep]int{}
	if r.Telemetry == nil {
		return steps
	}
	for _, e := range r.Telemetry.Events {
		if e.Kind == telemetry.EvDegrade {
			steps[gc.DegradeStep(e.A)]++
		}
	}
	return steps
}

// TestDegradeOverdraftCompletesXX100 is the real condition behind the
// mid-collection overdraft: 50.50.100 on pseudojbb at Appel's minimum heap
// runs its copy reserve out in the middle of a collection. Plain, that is
// an OOM; under Env.Degrade the collector maps past the cap, settles the
// debt with an emergency collection, and the run completes.
func TestDegradeOverdraftCompletesXX100(t *testing.T) {
	env := EnvForScale(0.1)
	bench := workload.Get("pseudojbb")
	minHeap, err := FindMinHeap(AppelConfig(env), bench, env)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := collectors.Parse("50.50.100", env.Options(minHeap))
	if err != nil {
		t.Fatal(err)
	}
	plain, err := RunOne(cfg, bench, env)
	if err != nil {
		t.Fatal(err)
	}
	if !plain.OOM {
		t.Fatalf("plain 50.50.100 at %d bytes completed: the heap no longer reaches the overdraft", minHeap)
	}
	env.Degrade, env.Telemetry = true, true
	res, err := RunOne(cfg, bench, env)
	if err != nil {
		t.Fatal(err)
	}
	if res.Incomplete() {
		t.Fatalf("degraded 50.50.100 at %d bytes: oom=%v aborted=%v failure=%q", minHeap, res.OOM, res.Aborted, res.Failure)
	}
	steps := degradeSteps(res)
	if steps[gc.DegradeOverdraft] == 0 || steps[gc.DegradeEmergencyGC] == 0 {
		t.Errorf("degrade steps %v, want reserve-overdraft and emergency-collection", steps)
	}
}
