package core_test

import (
	"testing"

	"beltway/internal/bench"
	"beltway/internal/core"
	"beltway/internal/heap"
)

// Benchmark bodies live in beltway/internal/bench. The helpers below
// are shared with the allocation-guard tests.

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

func BenchmarkAlloc(b *testing.B)                { bench.Alloc(b) }
func BenchmarkWriteBarrierFastPath(b *testing.B) { bench.WriteBarrierFastPath(b) }
func BenchmarkWriteBarrierSlowPath(b *testing.B) { bench.WriteBarrierSlowPath(b) }
func BenchmarkNurseryCollection(b *testing.B)    { bench.NurseryCollection(b) }
func BenchmarkFullCollection(b *testing.B)       { bench.FullCollection(b) }
func BenchmarkCheneyScan(b *testing.B)           { bench.CheneyScan(b) }
func BenchmarkTightHeapRun(b *testing.B)         { bench.TightHeapRun(b) }
func BenchmarkRoomyHeapRun(b *testing.B)         { bench.RoomyHeapRun(b) }
