package heap_test

import (
	"testing"

	"beltway/internal/heap"
)

// BenchmarkWordAccess measures the simulated memory's word load/store
// path (the floor under every collector operation).
func BenchmarkWordAccess(b *testing.B) {
	s := heap.NewSpace(1<<16, heap.NewRegistry())
	a := s.FrameBase(s.MapFrame())
	b.ReportAllocs()
	b.SetBytes(2 * heap.WordBytes) // one store + one load per iteration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.SetWord(a, uint32(i))
		if s.Word(a) != uint32(i) {
			b.Fatal("corrupt")
		}
	}
}
