package core_test

import (
	"sync"
	"testing"

	"beltway/internal/collectors"
	"beltway/internal/core"
	"beltway/internal/harness"
	"beltway/internal/heap"
	"beltway/internal/workload"
)

// The helpers below are shared with the allocation-guard tests.

func benchHeap(tb testing.TB, cfg core.Config) (*core.Heap, *heap.TypeDesc) {
	tb.Helper()
	types := heap.NewRegistry()
	h, err := core.New(cfg, types)
	if err != nil {
		tb.Fatal(err)
	}
	return h, types.DefineScalar("n", 2, 2)
}

func mustAlloc(tb testing.TB, h *core.Heap, t *heap.TypeDesc) heap.Addr {
	tb.Helper()
	a, err := h.Alloc(t, 0)
	if err != nil {
		tb.Fatal(err)
	}
	return a
}

// BenchmarkAlloc measures the bump-allocation fast path (including the
// cost-model charge and trigger polling) on a roomy heap.
func BenchmarkAlloc(b *testing.B) {
	o := collectors.Options{HeapBytes: 1 << 30, FrameBytes: 1 << 20}
	h, node := benchHeap(b, collectors.XX100(25, o))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := h.Alloc(node, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWriteBarrierFastPath measures Figure 4's barrier when the
// pointer is not interesting (intra-frame store).
func BenchmarkWriteBarrierFastPath(b *testing.B) {
	o := collectors.Options{HeapBytes: 64 << 20, FrameBytes: 1 << 20}
	h, node := benchHeap(b, collectors.XX100(25, o))
	a1, _ := h.Alloc(node, 0)
	a2, _ := h.Alloc(node, 0) // same frame: never remembered
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.WriteRef(a1, 0, a2)
	}
}

// BenchmarkWriteBarrierSlowPath measures the barrier when every store is
// interesting (old object pointing at the nursery) and must hit the
// remembered set (deduplicated after the first).
func BenchmarkWriteBarrierSlowPath(b *testing.B) {
	o := collectors.Options{HeapBytes: 64 << 20, FrameBytes: 64 << 10}
	h, node := benchHeap(b, collectors.XX100(25, o))
	roots := h.Roots()
	old := roots.Add(mustAlloc(b, h, node))
	// Promote it out of the nursery.
	if err := h.Collect(false); err != nil {
		b.Fatal(err)
	}
	if err := h.Collect(false); err != nil {
		b.Fatal(err)
	}
	young := roots.Add(mustAlloc(b, h, node))
	oa, ya := roots.Get(old), roots.Get(young)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.WriteRef(oa, i%2, ya)
	}
}

// BenchmarkNurseryCollection measures a steady-state nursery collection:
// fill the nursery with garbage plus a bounded survivor set, collect.
func BenchmarkNurseryCollection(b *testing.B) {
	o := collectors.Options{HeapBytes: 16 << 20, FrameBytes: 64 << 10}
	h, node := benchHeap(b, collectors.XX100(25, o))
	roots := h.Roots()
	// Survivors: 1000 rooted objects.
	for i := 0; i < 1000; i++ {
		roots.Add(mustAlloc(b, h, node))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < 5000; j++ {
			mustAlloc(b, h, node) // garbage
		}
		if err := h.Collect(false); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFullCollection measures whole-heap collections with a live
// linked structure.
func BenchmarkFullCollection(b *testing.B) {
	o := collectors.Options{HeapBytes: 32 << 20, FrameBytes: 256 << 10}
	h, node := benchHeap(b, collectors.BSS(o))
	roots := h.Roots()
	head := roots.Add(mustAlloc(b, h, node))
	prev := roots.Get(head)
	for i := 0; i < 20000; i++ {
		n := mustAlloc(b, h, node)
		h.WriteRef(prev, 0, n)
		prev = n
	}
	b.ReportAllocs()
	b.ResetTimer()
	copied0 := h.Clock().Counters.BytesCopied
	for i := 0; i < b.N; i++ {
		if err := h.Collect(true); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	delta := h.Clock().Counters.BytesCopied - copied0
	b.ReportMetric(float64(delta)/float64(b.N), "copied-bytes/op")
}

// BenchmarkCheneyScan isolates the transitive-closure scan: a wide,
// shallow live graph (one ref-array fanning out to scalar leaves) is
// evacuated wholesale on every full collection, so the per-object
// header-decode + slot-walk of the Cheney scan dominates.
func BenchmarkCheneyScan(b *testing.B) {
	o := collectors.Options{HeapBytes: 32 << 20, FrameBytes: 256 << 10}
	types := heap.NewRegistry()
	h, err := core.New(collectors.BSS(o), types)
	if err != nil {
		b.Fatal(err)
	}
	node := types.DefineScalar("leaf", 2, 2)
	arr := types.DefineRefArray("spine")
	roots := h.Roots()
	const fan = 10000
	spine, err := h.Alloc(arr, fan)
	if err != nil {
		b.Fatal(err)
	}
	sp := roots.Add(spine)
	for i := 0; i < fan; i++ {
		n := mustAlloc(b, h, node)
		h.WriteRef(roots.Get(sp), i, n)
	}
	live := (arr.Size(fan) + fan*node.Size(0))
	b.ReportAllocs()
	b.SetBytes(int64(live)) // live bytes traced per collection
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := h.Collect(true); err != nil {
			b.Fatal(err)
		}
	}
}

// heapRun is the once-a-process set-up of TightHeapRun and RoomyHeapRun: a
// benchmark's minimum heap under the Appel baseline at scale 0.1 — the
// search is a dozen runs of the benchmark, so it is not repeated for each
// b.N the testing package tries — and the configuration sized from it.
type heapRun struct {
	once sync.Once
	env  harness.Env
	cfg  core.Config
	err  error
}

func (r *heapRun) setup(b *testing.B, bench *workload.Benchmark, size func(o collectors.Options, minHeap int) core.Config) {
	r.once.Do(func() {
		r.env = harness.EnvForScale(0.1)
		var minHeap int
		minHeap, r.err = harness.FindMinHeap(harness.AppelConfig(r.env), bench, r.env)
		if r.err == nil {
			r.cfg = size(r.env.Options(0), minHeap)
		}
	})
	if r.err != nil {
		b.Fatal(r.err)
	}
}

var tightHeap, roomyHeap heapRun

// BenchmarkTightHeapRun measures a whole benchmark run in the regime
// where the trace is nearly all of it: pseudojbb under the Appel baseline
// at its own minimum heap (the last completing probe of a FindMinHeap
// search, every 1.1x cell of a sweep). ns/obj-copied is the cost of the
// Cheney kernel per object it moves.
func BenchmarkTightHeapRun(b *testing.B) {
	bench := workload.Get("pseudojbb")
	th := &tightHeap
	th.setup(b, bench, func(o collectors.Options, minHeap int) core.Config {
		o.HeapBytes = minHeap
		return collectors.Appel(o)
	})
	b.ReportAllocs()
	b.ResetTimer()
	var copied uint64
	for i := 0; i < b.N; i++ {
		res, err := harness.RunOne(th.cfg, bench, th.env)
		if err != nil {
			b.Fatal(err)
		}
		if res.OOM {
			b.Fatal("tight-heap bench OOM at its own minimum heap")
		}
		copied += res.Counters.ObjectsCopied
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(copied), "ns/obj-copied")
	b.ReportMetric(float64(copied)/float64(b.N), "objs-copied/op")
}

// BenchmarkRoomyHeapRun measures a whole benchmark run in the regime
// where the mutator is nearly all of it: jess, the allocation-heavy
// benchmark, on Beltway 25.25.100 with six times the heap it needs — one
// cell of the benchmark's mutator_roomy workload. ns/obj-allocated is the
// cost of the mutator's path — workload, vm, allocation, barrier — per
// object allocated, the few collections included.
func BenchmarkRoomyHeapRun(b *testing.B) {
	bench := workload.Get("jess")
	rh := &roomyHeap
	rh.setup(b, bench, func(o collectors.Options, minHeap int) core.Config {
		o.HeapBytes = 6 * minHeap
		return collectors.XX100(25, o)
	})
	b.ReportAllocs()
	b.ResetTimer()
	var allocated uint64
	for i := 0; i < b.N; i++ {
		res, err := harness.RunOne(rh.cfg, bench, rh.env)
		if err != nil {
			b.Fatal(err)
		}
		if res.OOM {
			b.Fatal("roomy-heap bench OOM at six times the minimum heap")
		}
		allocated += res.Counters.ObjectsAllocated
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(allocated), "ns/obj-allocated")
	b.ReportMetric(float64(allocated)/float64(b.N), "objs-allocated/op")
}
