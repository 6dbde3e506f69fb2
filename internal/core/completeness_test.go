package core_test

import (
	"errors"
	"testing"

	"beltway/internal/collectors"
	"beltway/internal/core"
	"beltway/internal/gc"
	"beltway/internal/heap"
	"beltway/internal/vm"
)

// cyclicPressure drives the workload the paper's completeness discussion
// warns about: a doubly-linked ring built across several top-belt
// increments, then released. Incremental X.X collections resurrect each
// condemned increment's slice of the ring through the remembered sets of
// its neighbors, so the garbage is never reclaimed and rooted allocation
// pressure eventually kills the heap — unless a collection condemns all
// the increments at once, as the .100 belt of a complete configuration
// does.
func cyclicPressure(cfg core.Config) error {
	types := heap.NewRegistry()
	h, err := core.New(cfg, types)
	if err != nil {
		return err
	}
	m := vm.New(h)
	m.EnableValidation()
	node := types.DefineScalar("cyc", 2, 2)
	return m.Run(func() {
		const ringNodes = 800
		hs := make([]gc.Handle, 0, ringNodes)
		for i := 0; i < ringNodes; i++ {
			hs = append(hs, m.AllocGlobal(node, 0))
			if i%100 == 99 {
				// Spread the ring across top-belt increments.
				m.Collect(false)
			}
		}
		for i := range hs {
			m.SetRef(hs[i], 0, hs[(i+1)%ringNodes])
			m.SetRef(hs[i], 1, hs[(i+ringNodes-1)%ringNodes])
		}
		for _, x := range hs {
			m.Release(x)
		}
		// Rooted pressure: fits comfortably once the ring is reclaimed.
		for i := 0; i < ringNodes; i++ {
			m.AllocGlobal(node, 0)
		}
	})
}

// TestXX100CompletesWhereXXDoesNot is the paper's completeness claim
// (§1): X.X is not complete, X.X.100 is. On cross-increment cyclic
// garbage 25.25 runs out of memory and 25.25.100 reclaims the ring.
func TestXX100CompletesWhereXXDoesNot(t *testing.T) {
	if err := cyclicPressure(collectors.XX(25, testOptions(64))); !errors.Is(err, gc.ErrOutOfMemory) {
		t.Fatalf("X.X: got %v, want OOM from unreclaimed cyclic garbage", err)
	}
	if err := cyclicPressure(collectors.XX100(25, testOptions(64))); err != nil {
		t.Fatalf("X.X.100: %v, want completion", err)
	}
}
