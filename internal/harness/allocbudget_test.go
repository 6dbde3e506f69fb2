package harness

import (
	"runtime"
	"sync"
	"testing"

	"beltway/internal/server"
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
	res, mallocs, _ := goHeapCostOf(t, cfg, heapBytes, bench, env)
	return res, mallocs
}

// goHeapCostOf runs cfg once and returns the run, the Go mallocs it took
// and the bytes they came to.
func goHeapCostOf(t *testing.T, cfg ConfigFunc, heapBytes int, bench *workload.Benchmark, env Env) (*Result, uint64, uint64) {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := RunOne(cfg(heapBytes), bench, env)
	runtime.ReadMemStats(&after)
	if err != nil || res.Incomplete() {
		t.Fatalf("run failed: %v %+v", err, res)
	}
	return res, after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
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
//     ~9 when every collection built its victim list and a new increment);
//
//   - a warm run, the second of two identical ones in a process, builds
//     on what the first released, even with two Go collections between
//     them: at most 110 Go mallocs and 16 KB (it reads about 80 and
//     11 KB);
//
//   - so does a warm javac run, at most 120 Go mallocs and 36 KB (it
//     reads about 90 and 23 KB, 28 KB under -race).
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
	t.Run("warm", func(t *testing.T) {
		warmRunWithin(t, mk, 6*minHeap, bench, env, 110, 16<<10)
	})
	t.Run("warm javac", func(t *testing.T) {
		javac := workload.Get("javac")
		min, err := FindMinHeap(AppelConfig(env), javac, env)
		if err != nil {
			t.Fatal(err)
		}
		warmRunWithin(t, mk, 6*min, javac, env, 120, 36<<10)
	})
}

// warmRunWithin runs cfg twice, with two Go collections between the
// runs, and holds the second to at most maxMallocs Go mallocs and
// maxBytes bytes.
func warmRunWithin(t *testing.T, cfg ConfigFunc, heapBytes int, bench *workload.Benchmark, env Env, maxMallocs, maxBytes uint64) {
	t.Helper()
	goHeapCostOf(t, cfg, heapBytes, bench, env) // leaves its scaffolding to the next run
	// What it left must survive Go collections.
	runtime.GC()
	runtime.GC()
	_, mallocs, bytes := goHeapCostOf(t, cfg, heapBytes, bench, env)
	t.Logf("a warm %s run: %d Go mallocs, %.1f KB", bench.Name, mallocs, float64(bytes)/1024)
	if mallocs > maxMallocs || bytes > maxBytes {
		t.Errorf("a warm %s run costs %d Go mallocs and %.1f KB, budget %d and %d KB",
			bench.Name, mallocs, float64(bytes)/1024, maxMallocs, maxBytes>>10)
	}
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

// TestRunServerAllocBudget holds a warm server run — the second of two
// identical ones, with two Go collections between them — to one fixed
// allowance of Go heap bytes, flat and on two lanes, at scale 0.25 and at
// four times its requests and keys (scale 1). The lanes' latency buffers
// and key permutations come back from the run before, and the report
// copies neither, so nothing in the run grows with the request count. At
// the commit before, the scale 1 run allocated about 0.58 MB more than
// the scale 0.25 one: 16 bytes a request and 8 a key.
func TestRunServerAllocBudget(t *testing.T) {
	const allowance = 64 << 10
	for _, scale := range []float64{0.25, 1} {
		for _, mutators := range []int{1, 2} {
			sc := server.Scaled(scale)
			env := EnvForScale(scale)
			env.Mutators = mutators
			cfg := serverCollector(t, "25.25", sc, env, 3)
			run := func() (*Result, uint64, uint64) {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				res, err := RunServer(cfg, sc, server.DefaultSLO, env)
				runtime.ReadMemStats(&after)
				if err != nil || res.Incomplete() {
					t.Fatalf("run failed: %v %+v", err, res)
				}
				return res, after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
			}
			run() // leaves its storage to the next run
			runtime.GC()
			runtime.GC()
			res, mallocs, bytes := run()
			t.Logf("a warm server run at scale %v on %d lane(s), %d requests: %d Go mallocs, %.1f KB",
				scale, mutators, res.Server.Overall.Requests, mallocs, float64(bytes)/1024)
			if bytes > allowance {
				t.Errorf("a warm server run at scale %v on %d lane(s) allocates %.1f KB, budget %d KB",
					scale, mutators, float64(bytes)/1024, allowance>>10)
			}
		}
	}
}
