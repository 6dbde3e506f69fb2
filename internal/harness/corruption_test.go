package harness

import (
	"errors"
	"math/rand"
	"strings"
	"testing"

	"beltway/internal/core"
	"beltway/internal/gc"
	"beltway/internal/heap"
	"beltway/internal/workload"
)

// corruptingBenchmark allocates and collects normally, then reads
// through an unmapped address — the substrate's memory fault, standing
// in for any heap-invariant violation that panics mid-run.
func corruptingBenchmark() *workload.Benchmark {
	return &workload.Benchmark{
		Name: "corrupting",
		Body: func(c *workload.Ctx) {
			node := c.Types.DefineScalar("hc.node", 1, 1)
			for i := 0; i < 200; i++ {
				c.M.Alloc(node, 0)
			}
			c.M.Collect(false)
			c.M.C.Space().Word(heap.Addr(0x7ffffff0))
		},
	}
}

// TestRunOneRecoversPanicAsHeapCorruption: at any lane count a panicking
// lane yields the typed error (naming the lane) with that lane's event
// tail, never a Result — not even one with a Failure string.
func TestRunOneRecoversPanicAsHeapCorruption(t *testing.T) {
	for _, mutators := range []int{0, 2} {
		env := testEnv()
		env.Mutators = mutators
		res, err := RunOne(AppelConfig(env)(1<<20), corruptingBenchmark(), env)
		if res != nil {
			t.Fatalf("mutators %d: corrupted run returned a Result: %+v", mutators, res)
		}
		var hc *HeapCorruptionError
		if !errors.As(err, &hc) {
			t.Fatalf("mutators %d: error %T (%v), want *HeapCorruptionError", mutators, err, err)
		}
		if hc.Collector == "" || hc.Benchmark != "corrupting" {
			t.Errorf("error misattributed: collector=%q benchmark=%q", hc.Collector, hc.Benchmark)
		}
		if hc.Lane != 0 || hc.Lanes != max(mutators, 1) {
			t.Errorf("mutators %d: lane %d of %d, want the first of the run's lanes", mutators, hc.Lane, hc.Lanes)
		}
		if hc.Panic == nil {
			t.Error("Panic not captured")
		}
		if len(hc.Events) < 1 {
			t.Fatal("no flight-recorder events attached; the tail should hold the preceding collection")
		}
		msg := hc.Error()
		if !strings.Contains(msg, "heap corruption") || !strings.Contains(msg, "flight-recorder events") {
			t.Errorf("Error() = %q, want panic context plus the event tail", msg)
		}
		if named := strings.Contains(msg, "(lane 0 of 2)"); named != (mutators == 2) {
			t.Errorf("mutators %d: Error() = %q, lane named: %v", mutators, msg, named)
		}
	}
}

// TestFinalCollectionFollowsTheRoundRule: the global collection that
// ends a multi-mutator run stops a lane the way a round does — a panic
// in it is the typed corruption error naming the lane.
func TestFinalCollectionFollowsTheRoundRule(t *testing.T) {
	env := testEnv()
	env.Mutators = 2
	// Lane 0's stream is the base seed's own (shard.StreamSeed), so its
	// first draw tells the lanes apart from inside a body.
	lane0Draw := rand.New(rand.NewSource(env.Seed)).Int63()
	bench := func(breakLane1 bool) *workload.Benchmark {
		return &workload.Benchmark{Name: "final-collection", Body: func(c *workload.Ctx) {
			node := c.Types.DefineScalar("fc.node", 1, 1)
			for i := 0; i < 200; i++ {
				c.M.AllocGlobal(node, 0)
			}
			if breakLane1 && c.Rng.Int63() != lane0Draw {
				h := c.M.C.(*core.Heap)
				h.SetHooks(h.Hooks().Merge(gc.Hooks{PreGC: func() { panic("heap broken") }}))
			}
		}}
	}
	cfg := AppelConfig(env)(1 << 20)

	whole, err := RunOne(cfg, bench(false), env)
	if err != nil {
		t.Fatal(err)
	}
	if whole.Collections != 2 || len(whole.Pauses) != 2 {
		t.Fatalf("%d collections, %d pauses; want the final collection alone, once a lane", whole.Collections, len(whole.Pauses))
	}

	res, err := RunOne(cfg, bench(true), env)
	var hc *HeapCorruptionError
	if res != nil || !errors.As(err, &hc) {
		t.Fatalf("panic in lane 1's final collection: result %+v, error %T (%v); want *HeapCorruptionError", res, err, err)
	}
	if hc.Lane != 1 || hc.Lanes != 2 || hc.Panic != "heap broken" {
		t.Errorf("lane %d of %d, panic %v; want lane 1 of 2, \"heap broken\"", hc.Lane, hc.Lanes, hc.Panic)
	}
}
