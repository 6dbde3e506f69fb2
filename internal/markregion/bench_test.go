package markregion_test

import (
	"testing"

	"beltway/internal/collectors"
	"beltway/internal/core"
	"beltway/internal/heap"
)

// immixHeap is an Immix heap of o's geometry and the one type its
// benchmarks allocate.
func immixHeap(b *testing.B, o collectors.Options) (*core.Heap, *heap.TypeDesc) {
	types := heap.NewRegistry()
	h, err := core.New(collectors.Immix(o), types)
	if err != nil {
		b.Fatal(err)
	}
	return h, types.DefineScalar("n", 2, 2)
}

// BenchmarkMarkRegionAlloc measures the mark-region bump path: like
// core's BenchmarkAlloc, but every allocation also sets the object-start
// bit and maintains line occupancy (markregion.Frame.NoteAlloc) on its
// way out.
func BenchmarkMarkRegionAlloc(b *testing.B) {
	h, node := immixHeap(b, collectors.Options{HeapBytes: 1 << 30, FrameBytes: 1 << 20})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := h.Alloc(node, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMarkRegionFullCollection is core's BenchmarkFullCollection on
// the mark-region substrate: the same live linked structure, but
// survivors are marked in place instead of evacuated. The copied-bytes/op
// metric records the residual copy traffic (defragmentation only), the
// number the copying FullCollection pays for every live byte.
func BenchmarkMarkRegionFullCollection(b *testing.B) {
	h, node := immixHeap(b, collectors.Options{HeapBytes: 32 << 20, FrameBytes: 256 << 10})
	alloc := func() heap.Addr {
		a, err := h.Alloc(node, 0)
		if err != nil {
			b.Fatal(err)
		}
		return a
	}
	roots := h.Roots()
	head := roots.Add(alloc())
	prev := roots.Get(head)
	for i := 0; i < 20000; i++ {
		n := alloc()
		h.WriteRef(prev, 0, n)
		prev = n
	}
	copied0 := h.Clock().Counters.BytesCopied
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := h.Collect(true); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	delta := h.Clock().Counters.BytesCopied - copied0
	b.ReportMetric(float64(delta)/float64(b.N), "copied-bytes/op")
}
