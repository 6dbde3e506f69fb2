package vm_test

import (
	"testing"

	"beltway/internal/collectors"
	"beltway/internal/core"
	"beltway/internal/gc"
	"beltway/internal/heap"
	"beltway/internal/vm"
)

// The mutator facade is what every workload object passes through. With
// room in the heap — no collection, no frame to map — a scope of
// allocations, pointer stores and loads must not reach the Go allocator:
// the simulated mutator pays a bump pointer and a barrier per object,
// and so should its simulator.
func TestMutatorScopeZeroAlloc(t *testing.T) {
	types := heap.NewRegistry()
	cfg := collectors.XX100(25, core.Options{HeapBytes: 64 << 20, FrameBytes: 1 << 20})
	h, err := core.New(cfg, types)
	if err != nil {
		t.Fatal(err)
	}
	m := vm.New(h)
	node := types.DefineScalar("n", 2, 2)
	keep := m.AllocGlobal(node, 0)
	scope := func() {
		m.Push()
		var prev gc.Handle
		for i := 0; i < 8; i++ {
			n := m.Alloc(node, 0)
			m.SetRef(n, 0, prev)
			m.SetRef(keep, 1, n)
			if got := m.GetRef(keep, 1); !m.SameObject(got, n) {
				t.Fatal("GetRef did not return the stored object")
			}
			prev = n
		}
		m.Pop()
	}
	scope() // first frame mapped, root table at depth
	collections := h.Collections()
	if n := testing.AllocsPerRun(100, scope); n != 0 {
		t.Errorf("Push/Alloc/SetRef/GetRef/Pop allocates %v times per scope, want 0", n)
	}
	if h.Collections() != collections {
		t.Fatal("the heap collected: not the roomy path this guard is about")
	}
}
