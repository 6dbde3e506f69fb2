package harness

import (
	"errors"
	"strings"
	"testing"

	"beltway/internal/collectors"
	"beltway/internal/gc"
	"beltway/internal/shard"
	"beltway/internal/workload"
)

// TestXX100CopyReserveRunsOutAtAppelMinimum is ROADMAP item 3's open
// case: 50.50.100 on pseudojbb at Appel's minimum heap runs its dynamic
// copy reserve out in the middle of a collection, and a Cheney copy
// cannot abort halfway, so the run is OOM at a heap Appel completes in.
// Item 3 (the reserve's sizing) is expected to change this assertion.
func TestXX100CopyReserveRunsOutAtAppelMinimum(t *testing.T) {
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
	// Run's lane, kept for its error: Result.OOM says only that it died.
	rt, err := shard.New(cfg, shard.Options{Shards: 1, Seed: env.Seed})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Release()
	bw, err := Bench(bench).bind(rt.Shards(), env, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer bw.release()
	if err := rt.RunSerial(bw.plan()); err != nil {
		t.Fatal(err)
	}
	var oe *gc.OOMError
	if err := rt.Shards()[0].Err(); !errors.As(err, &oe) ||
		!strings.Contains(oe.Detail, "copy reserve exhausted during collection") {
		t.Fatalf("50.50.100 at %d bytes: got %v, want OOM with the copy reserve exhausted during collection", minHeap, err)
	}
}
