package core_test

import (
	"errors"
	"strings"
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
// pressure eventually kills the heap — unless an emergency full-heap
// collection condemns all the increments at once.
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

func TestEmergencyCollectionReclaimsCycles(t *testing.T) {
	plain := collectors.XX(25, testOptions(64))
	if err := cyclicPressure(plain); !errors.Is(err, gc.ErrOutOfMemory) {
		t.Fatalf("plain X.X: got %v, want OOM from unreclaimed cyclic garbage", err)
	}
	degraded := plain
	degraded.Degrade = true
	if err := cyclicPressure(degraded); err != nil {
		t.Fatalf("X.X with degradation: %v, want completion via emergency collection", err)
	}
}

func TestOOMErrorCarriesDegradationHistory(t *testing.T) {
	cfg := collectors.XX(25, testOptions(64))
	cfg.Degrade = true
	types := heap.NewRegistry()
	h, err := core.New(cfg, types)
	if err != nil {
		t.Fatal(err)
	}
	var steps []gc.DegradeStep
	oomCount := 0
	h.SetHooks(gc.Hooks{
		Degraded: func(info gc.DegradeInfo) { steps = append(steps, info.Step) },
		OOM:      func(_, _ int) { oomCount++ },
	})
	node := types.DefineScalar("n", 2, 2)
	var allocErr error
	for i := 0; i < 100000; i++ {
		a, err := h.Alloc(node, 0)
		if err != nil {
			allocErr = err
			break
		}
		h.Roots().AddGlobal(a)
	}
	if allocErr == nil {
		t.Fatal("rooted fill never hit OOM")
	}
	var oe *gc.OOMError
	if !errors.As(allocErr, &oe) {
		t.Fatalf("error %T is not *gc.OOMError", allocErr)
	}
	found := false
	for _, s := range oe.Degradation {
		if s == gc.DegradeEmergencyGC.String() {
			found = true
		}
	}
	if !found {
		t.Errorf("Degradation = %v, want an %q entry", oe.Degradation, gc.DegradeEmergencyGC)
	}
	if !strings.Contains(oe.Error(), "after "+gc.DegradeEmergencyGC.String()) {
		t.Errorf("Error() = %q does not mention the ladder", oe.Error())
	}
	hasStep := false
	for _, s := range steps {
		if s == gc.DegradeEmergencyGC {
			hasStep = true
		}
	}
	if !hasStep {
		t.Errorf("Degraded hook steps = %v, want DegradeEmergencyGC", steps)
	}
	if oomCount != 1 {
		t.Errorf("OOM hook fired %d times, want 1 (degradation precedes, not duplicates, the OOM)", oomCount)
	}
}
