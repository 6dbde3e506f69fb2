package harness

import (
	"runtime"
	"sync"
	"testing"

	"beltway/internal/workload"
)

// budgetJob is the run the allocation budget is stated on: jess on
// 25.25.100 at six times its Appel minimum heap, scale 0.1 — allocation
// and barriers dominate, collections are rare.
func budgetJob(t *testing.T) (ConfigFunc, *workload.Benchmark, Env, int) {
	t.Helper()
	env := EnvForScale(0.1)
	bench := workload.Get("jess")
	min, err := FindMinHeap(AppelConfig(env), bench, env)
	if err != nil {
		t.Fatal(err)
	}
	return xx100Func(25, env), bench, env, 6 * min
}

// TestRunOneAllocBudget holds a whole simulated run to O(frames) Go heap
// allocations: per simulated object allocated, at most a tenth of a Go
// object. (It read ~0.65 when every root scope grew its own slice and
// every run built its heap from fresh slabs.)
func TestRunOneAllocBudget(t *testing.T) {
	mk, bench, env, heapBytes := budgetJob(t)
	run := func() *Result {
		res, err := RunOne(mk(heapBytes), bench, env)
		if err != nil || res.Incomplete() {
			t.Fatalf("run failed: %v %+v", err, res)
		}
		return res
	}
	run() // the first run of a process pays for its slabs
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res := run()
	runtime.ReadMemStats(&after)
	perObject := float64(after.Mallocs-before.Mallocs) / float64(res.Counters.ObjectsAllocated)
	t.Logf("%d Go mallocs for %d simulated objects: %.4f per object",
		after.Mallocs-before.Mallocs, res.Counters.ObjectsAllocated, perObject)
	if perObject > 0.1 {
		t.Errorf("RunOne costs %.3f Go mallocs per simulated object, budget 0.1", perObject)
	}
}

// TestRunOneSharedSlabPoolMatchesSerial runs pairs of RunOnes at once, as
// the engine's workers do, so that each run's heap is built from slabs
// the other side released: every result must be the one the same run
// gives alone. Run under -race, this is also the check that a released
// slab is never touched by the run that gave it up.
func TestRunOneSharedSlabPoolMatchesSerial(t *testing.T) {
	mk, bench, env, heapBytes := budgetJob(t)
	heaps := []int{heapBytes, heapBytes / 2}
	digest := func(heapBytes int) string {
		res, err := RunOne(mk(heapBytes), bench, env)
		if err != nil {
			t.Error(err)
			return ""
		}
		d, err := ResultDigest(res)
		if err != nil {
			t.Error(err)
		}
		return d
	}
	want := make([]string, len(heaps))
	for i, hb := range heaps {
		want[i] = digest(hb)
	}
	const rounds = 3
	got := make([][rounds]string, len(heaps))
	var wg sync.WaitGroup
	for i := range heaps {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				got[i][r] = digest(heaps[i])
			}
		}(i)
	}
	wg.Wait()
	for i := range heaps {
		for r, d := range got[i] {
			if d != want[i] {
				t.Errorf("heap %d, concurrent round %d: digest %s, serial %s", heaps[i], r, d, want[i])
			}
		}
	}
}
