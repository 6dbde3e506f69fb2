package vm_test

import (
	"testing"
	"time"

	"beltway/internal/collectors"
	"beltway/internal/core"
	"beltway/internal/gc"
	"beltway/internal/heap"
	"beltway/internal/vm"
)

// BenchmarkMutatorOps measures the mutator's fast path one operation kind at a
// time, through vm.Mutator as the workloads use it: handle lookups, the
// dynamic call into the collector, the heap accessor. The heap never
// collects (it is replaced, off the clocks, long before its nursery
// fills), so what is timed is the path an operation takes when nothing
// stands in its way — frame maps included, at the benchmark's own 2 KB
// frames. One b.N iteration is one scope of opsPerKind operations of each
// kind; every kind is timed as a batch and reported in ns per operation.
func BenchmarkMutatorOps(b *testing.B) {
	const (
		opsPerKind   = 64
		scopesAHeap  = 1024 // 64 x 28 B a scope: 1.8 MB of a 16 MB heap's 3 MB nursery
		handlesScope = 2 * opsPerKind
	)
	types := heap.NewRegistry()
	node := types.DefineScalar("n", 2, 2)
	cfg := collectors.XX100(25, collectors.Options{HeapBytes: 16 << 20, FrameBytes: 2048})
	var (
		h    *core.Heap
		m    *vm.Mutator
		keep gc.Handle
	)
	fresh := func() {
		var err error
		if h == nil {
			h, err = core.New(cfg, types)
		} else if h.Collections() != 0 {
			b.Fatal("the heap collected: not the path this benchmark is about")
		} else {
			err = h.Reset(cfg, types)
		}
		if err != nil {
			b.Fatal(err)
		}
		m = vm.New(h)
		keep = m.AllocGlobal(node, 0)
	}
	var ns struct{ alloc, setRef, getRef, setData, getData, pushPop, release time.Duration }
	var objs [opsPerKind]gc.Handle
	var sink uint32
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%scopesAHeap == 0 {
			b.StopTimer()
			fresh()
			b.StartTimer()
		}
		m.Push()
		t := time.Now()
		for k := range objs {
			objs[k] = m.Alloc(node, 0)
		}
		ns.alloc += time.Since(t)

		t = time.Now()
		for k, o := range objs {
			m.SetRef(o, k&1, objs[(k+1)%opsPerKind]) // same or neighbouring frame: the fast path
		}
		ns.setRef += time.Since(t)

		t = time.Now()
		for k, o := range objs {
			if m.GetRef(o, k&1) == gc.NilHandle {
				b.Fatal("GetRef lost a stored reference")
			}
		}
		ns.getRef += time.Since(t)

		t = time.Now()
		for k, o := range objs {
			m.SetData(o, k&1, uint32(k))
		}
		ns.setData += time.Since(t)

		t = time.Now()
		for k, o := range objs {
			sink += m.GetData(o, k&1)
		}
		ns.getData += time.Since(t)

		t = time.Now()
		for k := 0; k < opsPerKind; k++ {
			m.Push()
			m.Pop()
		}
		ns.pushPop += time.Since(t)

		m.SetRef(keep, 0, objs[0])
		t = time.Now()
		m.Pop() // releases the scope's handles: the objects and GetRef's results
		ns.release += time.Since(t)
	}
	b.StopTimer()
	if sink == 0 && b.N > 0 {
		b.Fatal("GetData read nothing back")
	}
	per := func(d time.Duration, n int) float64 {
		return float64(d.Nanoseconds()) / float64(b.N) / float64(n)
	}
	b.ReportMetric(per(ns.alloc, opsPerKind), "ns/alloc")
	b.ReportMetric(per(ns.setRef, opsPerKind), "ns/setref")
	b.ReportMetric(per(ns.getRef, opsPerKind), "ns/getref")
	b.ReportMetric(per(ns.setData, opsPerKind), "ns/setdata")
	b.ReportMetric(per(ns.getData, opsPerKind), "ns/getdata")
	b.ReportMetric(per(ns.pushPop, opsPerKind), "ns/pushpop")
	b.ReportMetric(per(ns.release, handlesScope), "ns/release")
}
