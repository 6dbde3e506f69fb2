package harness

import (
	"runtime"
	"sync"
	"testing"

	"beltway/internal/workload"
)

// budgetJob is the run the allocation budget is stated on: jess on
// 25.25.100 at six times its Appel minimum heap, scale 0.1 — allocation
// and barriers dominate, collections are rare. It returns that minimum.
func budgetJob(t *testing.T) (ConfigFunc, *workload.Benchmark, Env, int) {
	t.Helper()
	env := EnvForScale(0.1)
	bench := workload.Get("jess")
	min, err := FindMinHeap(AppelConfig(env), bench, env)
	if err != nil {
		t.Fatal(err)
	}
	return xx100Func(25, env), bench, env, min
}

// mallocsOf runs cfg once and returns the run and the Go mallocs it took.
func mallocsOf(t *testing.T, cfg ConfigFunc, heapBytes int, bench *workload.Benchmark, env Env) (*Result, uint64) {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := RunOne(cfg(heapBytes), bench, env)
	runtime.ReadMemStats(&after)
	if err != nil || res.Incomplete() {
		t.Fatalf("run failed: %v %+v", err, res)
	}
	return res, after.Mallocs - before.Mallocs
}

// TestRunOneAllocBudget holds a whole simulated run to O(frames) Go heap
// allocations, and a collection to none:
//
//   - per simulated object allocated, a run costs at most a tenth of a Go
//     object (it read ~0.65 when every root scope grew its own slice and
//     every run built its heap from fresh slabs);
//
//   - the thrash at the minimum heap, where every figure's search probes,
//     costs at most a tenth of a Go object per collection: jess on Appel
//     at its minimum heap against the same run at six times it, the
//     difference in mallocs over the difference in collections (it read
//     ~9 when every collection built its victim list and a new increment).
func TestRunOneAllocBudget(t *testing.T) {
	mk, bench, env, minHeap := budgetJob(t)
	t.Run("per object", func(t *testing.T) {
		mallocsOf(t, mk, 6*minHeap, bench, env) // the first run of a process pays for its slabs
		res, mallocs := mallocsOf(t, mk, 6*minHeap, bench, env)
		perObject := float64(mallocs) / float64(res.Counters.ObjectsAllocated)
		t.Logf("%d Go mallocs for %d simulated objects: %.4f per object",
			mallocs, res.Counters.ObjectsAllocated, perObject)
		if perObject > 0.1 {
			t.Errorf("RunOne costs %.3f Go mallocs per simulated object, budget 0.1", perObject)
		}
	})
	t.Run("per thrash collection", func(t *testing.T) {
		appel := AppelConfig(env)
		mallocsOf(t, appel, 6*minHeap, bench, env) // the larger heap pays for the slabs of both
		tight, tightMallocs := mallocsOf(t, appel, minHeap, bench, env)
		roomy, roomyMallocs := mallocsOf(t, appel, 6*minHeap, bench, env)
		extra := tight.Counters.Collections - roomy.Counters.Collections
		if extra < 100 {
			t.Fatalf("%d collections at the minimum heap, %d at six times it: no thrash to measure",
				tight.Counters.Collections, roomy.Counters.Collections)
		}
		perCollection := (float64(tightMallocs) - float64(roomyMallocs)) / float64(extra)
		t.Logf("%d Go mallocs for %d collections at the minimum heap, %d for %d at six times it: %.3f per extra collection",
			tightMallocs, tight.Counters.Collections, roomyMallocs, roomy.Counters.Collections, perCollection)
		if perCollection > 0.1 {
			t.Errorf("a collection at the minimum heap costs %.3f Go mallocs, budget 0.1", perCollection)
		}
	})
}

// TestRunOneSharedSlabPoolMatchesSerial runs pairs of RunOnes at once, as
// the engine's workers do, so that each run's heap is built from slabs
// the other side released: every result must be the one the same run
// gives alone. Run under -race, this is also the check that a released
// slab is never touched by the run that gave it up.
func TestRunOneSharedSlabPoolMatchesSerial(t *testing.T) {
	mk, bench, env, minHeap := budgetJob(t)
	heaps := []int{6 * minHeap, 3 * minHeap}
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
