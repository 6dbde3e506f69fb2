package core_test

import (
	"testing"

	"beltway/internal/collectors"
	"beltway/internal/core"
	"beltway/internal/gc"
	"beltway/internal/heap"
	"beltway/internal/vm"
)

// TestPretenuredAllocationLandsOnOldBelt verifies the allocation-site
// segregation mechanics: pretenured objects go straight to the top belt
// (or the configured one), not the nursery.
func TestPretenuredAllocationLandsOnOldBelt(t *testing.T) {
	m, types, h := newMutator(t, collectors.XX100(25, testOptions(512)))
	node := types.DefineScalar("pt", 1, 4)
	err := m.Run(func() {
		for i := 0; i < 200; i++ {
			m.AllocPretenuredGlobal(node, 0)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	belts := h.Belts()
	if belts[0].Bytes() != 0 {
		t.Errorf("nursery holds %d bytes; pretenured allocation leaked into it", belts[0].Bytes())
	}
	if top := belts[len(belts)-1].Bytes(); top < 200*node.Size(0) {
		t.Errorf("top belt holds %d bytes, want >= %d", top, 200*node.Size(0))
	}
	if h.Clock().Counters.PretenuredBytes == 0 {
		t.Error("PretenuredBytes counter not incremented")
	}
}

// TestPretenureSurvivesCollections: pretenured data must survive nursery
// and belt collections like any promoted object (the validator checks
// graph integrity throughout).
func TestPretenureSurvivesCollections(t *testing.T) {
	m, types, _ := newMutator(t, collectors.XX100(25, testOptions(512)))
	holder := types.DefineScalar("ph", 2, 1)
	filler := types.DefineScalar("pf", 0, 14)
	err := m.Run(func() {
		var kept []gc.Handle
		for i := 0; i < 300; i++ {
			hd := m.AllocPretenuredGlobal(holder, 0)
			m.SetData(hd, 0, uint32(i))
			if len(kept) > 0 {
				m.SetRef(hd, 0, kept[len(kept)-1])
			}
			// Pretenured-to-young pointer: must be remembered.
			m.Push()
			y := m.Alloc(filler, 0)
			m.SetRef(hd, 1, y)
			m.Pop()
			kept = append(kept, hd)
			m.Push()
			for j := 0; j < 150; j++ {
				m.Alloc(filler, 0)
			}
			m.Pop()
		}
		for i, hd := range kept {
			if got := m.GetData(hd, 0); got != uint32(i) {
				t.Fatalf("pretenured object %d holds %d", i, got)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestPretenureIntoMOSTrains: with a MOS top belt, pretenured data goes
// into the last train's cars.
func TestPretenureIntoMOSTrains(t *testing.T) {
	m, types, h := newMutator(t, collectors.XXMOS(20, testOptions(512)))
	node := types.DefineScalar("pmos", 0, 6)
	err := m.Run(func() {
		for i := 0; i < 2000; i++ {
			m.AllocPretenuredGlobal(node, 0)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	mos := h.Belts()[len(h.Belts())-1]
	if mos.Len() == 0 {
		t.Fatal("MOS belt empty after pretenured allocation")
	}
	for _, in := range mos.Increments() {
		if in.Train() < 0 {
			t.Error("pretenured MOS car has no train")
		}
	}
	if err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestPretenuringReducesCopying is the payoff test: a workload with a
// large long-lived structure copies much less when that structure is
// pretenured (it skips the nursery and every promotion hop).
func TestPretenuringReducesCopying(t *testing.T) {
	run := func(pretenure bool) uint64 {
		types := heap.NewRegistry()
		h, err := core.New(collectors.XX100(25, testOptions(768)), types)
		if err != nil {
			t.Fatal(err)
		}
		m := vm.New(h)
		long := types.DefineScalar("ll", 1, 10)
		filler := types.DefineScalar("fl", 0, 14)
		err = m.Run(func() {
			for i := 0; i < 3000; i++ {
				if pretenure {
					m.AllocPretenuredGlobal(long, 0)
				} else {
					m.AllocGlobal(long, 0)
				}
				m.Push()
				for j := 0; j < 20; j++ {
					m.Alloc(filler, 0)
				}
				m.Pop()
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return h.Clock().Counters.BytesCopied
	}
	normal := run(false)
	pret := run(true)
	t.Logf("bytes copied: normal=%d pretenured=%d", normal, pret)
	if pret >= normal {
		t.Errorf("pretenuring did not reduce copying: %d -> %d", normal, pret)
	}
}
