package workload_test

import (
	"math/rand"
	"testing"

	"beltway/internal/collectors"
	"beltway/internal/core"
	"beltway/internal/heap"
	"beltway/internal/vm"
	"beltway/internal/workload"
)

// runWorkload measures end-to-end simulated-mutator throughput for one
// benchmark body on a roomy heap (collector cost mostly excluded).
func runWorkload(b *testing.B, name string) {
	bench := workload.Get(name)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		types := heap.NewRegistry()
		h, err := core.New(collectors.XX100(25,
			collectors.Options{HeapBytes: 8 << 20, FrameBytes: 8 * 1024}), types)
		if err != nil {
			b.Fatal(err)
		}
		m := vm.New(h)
		ctx := &workload.Ctx{M: m, Types: types, Rng: rand.New(rand.NewSource(1)), Scale: 0.1}
		if err := m.Run(func() { bench.Body(ctx) }); err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(h.Clock().Counters.BytesAllocated))
		h.Release() // as the harness does: the next iteration builds on what this one grew
	}
}

func BenchmarkWorkloadJess(b *testing.B)      { runWorkload(b, "jess") }
func BenchmarkWorkloadRaytrace(b *testing.B)  { runWorkload(b, "raytrace") }
func BenchmarkWorkloadDB(b *testing.B)        { runWorkload(b, "db") }
func BenchmarkWorkloadJavac(b *testing.B)     { runWorkload(b, "javac") }
func BenchmarkWorkloadJack(b *testing.B)      { runWorkload(b, "jack") }
func BenchmarkWorkloadPseudoJBB(b *testing.B) { runWorkload(b, "pseudojbb") }
