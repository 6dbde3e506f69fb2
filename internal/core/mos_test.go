package core_test

import (
	"testing"

	"beltway/internal/collectors"
	"beltway/internal/core"
	"beltway/internal/gc"
	"beltway/internal/heap"
	"beltway/internal/vm"
)

func mosConfig(heapKB int) core.Config {
	return collectors.XXMOS(20, testOptions(heapKB))
}

// TestMOSValidation checks the configuration constraints.
func TestMOSValidation(t *testing.T) {
	good := mosConfig(256)
	if err := good.Validate(); err != nil {
		t.Fatalf("valid MOS config rejected: %v", err)
	}
	bad := mosConfig(256)
	bad.Belts[2].IncrementFrac = 1.0
	if bad.Validate() == nil {
		t.Error("unbounded MOS cars accepted")
	}
	bad = mosConfig(256)
	bad.Barrier = core.BoundaryBarrier
	if bad.Validate() == nil {
		t.Error("MOS with boundary barrier accepted")
	}
	bad = mosConfig(256)
	bad.Belts[2].PromoteTo = 1
	if bad.Validate() == nil {
		t.Error("MOS belt promoting elsewhere accepted")
	}
}

// TestMOSPreservesGraph runs the standard validated workloads on the MOS
// configuration (graph isomorphism via the shadow oracle).
func TestMOSPreservesGraph(t *testing.T) {
	m, types, h := newMutator(t, mosConfig(384))
	node := types.DefineScalar("mnode", 1, 2)
	err := m.Run(func() {
		head := m.Alloc(node, 0)
		m.SetData(head, 0, 0)
		tail := head
		for i := 1; i < 3000; i++ {
			n := m.Alloc(node, 0)
			m.SetData(n, 0, uint32(i))
			m.SetRef(tail, 0, n)
			if tail != head {
				m.Release(tail)
			}
			tail = n
			g := m.Alloc(node, 0)
			m.Release(g)
		}
		m.Collect(false)
		cur := head
		for i := 0; i < 3000; i++ {
			if got := m.GetData(cur, 0); got != uint32(i) {
				t.Fatalf("node %d holds %d", i, got)
			}
			if m.RefIsNil(cur, 0) {
				break
			}
			next := m.GetRef(cur, 0)
			if cur != head {
				m.Release(cur)
			}
			cur = next
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if h.Collections() == 0 {
		t.Fatal("no collections")
	}
	if err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestMOSNeverFullHeapCollections is the point of the extension: unlike
// Beltway X.X.100, the MOS configuration reaches completeness without
// ever condemning the whole occupied heap at once (once real occupancy
// exists).
func TestMOSNeverFullHeapCollections(t *testing.T) {
	m, types, h := newMutator(t, mosConfig(512))
	node := types.DefineScalar("mn", 1, 6)
	err := m.Run(func() {
		var keep []gc.Handle
		for i := 0; i < 40000; i++ {
			hd := m.AllocGlobal(node, 0)
			if i%6 == 0 {
				keep = append(keep, hd)
			} else {
				m.Release(hd)
			}
			if len(keep) > 1500 {
				m.Release(keep[0])
				keep = keep[1:]
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	c := h.Clock().Counters
	if c.Collections < 10 {
		t.Fatalf("only %d collections", c.Collections)
	}
	// The first collection (nursery only, everything condemned) may
	// register as "full"; steady state must not.
	if c.FullCollections > 2 {
		t.Errorf("MOS performed %d full-heap collections out of %d; should be incremental",
			c.FullCollections, c.Collections)
	}
}

// TestMOSReclaimsCrossCarCycles is the completeness test: garbage cycles
// whose edges span mature-space cars must eventually die via train
// migration and the train-death test — with no full-heap collection.
func TestMOSReclaimsCrossCarCycles(t *testing.T) {
	types := heap.NewRegistry()
	h, err := core.New(mosConfig(512), types)
	if err != nil {
		t.Fatal(err)
	}
	m := vm.New(h)
	node := types.DefineScalar("cyc", 2, 4)
	filler := types.DefineScalar("fil", 0, 14)
	err = m.Run(func() {
		// Cycles whose halves are separated by heavy allocation, so
		// they land in different nursery collections and therefore in
		// different mature cars.
		for c := 0; c < 40; c++ {
			a := m.AllocGlobal(node, 0)
			m.Push()
			for i := 0; i < 700; i++ {
				m.Alloc(filler, 0)
			}
			m.Pop()
			b := m.AllocGlobal(node, 0)
			m.SetRef(a, 0, b)
			m.SetRef(b, 0, a)
			m.Release(a)
			m.Release(b)
		}
		// Churn: medium-lived survivors keep the belts moving so cars
		// are repeatedly collected and the cycles migrate.
		var keep []gc.Handle
		for i := 0; i < 60000; i++ {
			hd := m.AllocGlobal(filler, 0)
			if i%4 == 0 {
				keep = append(keep, hd)
			} else {
				m.Release(hd)
			}
			if len(keep) > 800 {
				m.Release(keep[0])
				keep = keep[1:]
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	remaining := 0
	h.ForEachObject(func(a heap.Addr) bool {
		if h.Space().TypeOf(a).Name == "cyc" {
			remaining++
		}
		return true
	})
	t.Logf("MOS: %d of 80 dead cycle nodes still retained; %d collections (%d full)",
		remaining, h.Collections(), h.Clock().Counters.FullCollections)
	if remaining > 40 {
		t.Errorf("MOS retained %d of 80 cross-car cycle nodes; trains are not reclaiming garbage cycles",
			remaining)
	}
	if h.Clock().Counters.FullCollections > 2 {
		t.Errorf("completeness must come from trains, not %d full-heap collections",
			h.Clock().Counters.FullCollections)
	}
}

// TestMOSTrainStructure inspects the belt: cars carry train ids, the
// list is ordered by train, and promotions spill into multiple trains
// once the last train has its fill of cars.
func TestMOSTrainStructure(t *testing.T) {
	cfg := collectors.XXMOS(10, testOptions(512)) // small cars: trains form quickly
	m, types, h := newMutator(t, cfg)
	node := types.DefineScalar("ts", 1, 6)
	maxTrains := 0
	err := m.Run(func() {
		var ballast []gc.Handle
		for i := 0; i < 6000; i++ { // ballast past the four cars one train takes
			ballast = append(ballast, m.AllocGlobal(node, 0))
			if i%300 == 299 {
				m.Collect(false) // drive promotion toward the MOS belt
				m.Collect(false)
			}
			mos := h.Belts()[len(h.Belts())-1]
			trains := map[int]bool{}
			lastTrain := -1
			for _, in := range mos.Increments() {
				if in.Train() < lastTrain {
					t.Fatalf("car order violates train order: %d after %d", in.Train(), lastTrain)
				}
				lastTrain = in.Train()
				trains[in.Train()] = true
			}
			if len(trains) > maxTrains {
				maxTrains = len(trains)
			}
		}
		_ = ballast
	})
	if err != nil {
		t.Fatal(err)
	}
	if maxTrains < 2 {
		t.Errorf("never saw more than %d simultaneous trains", maxTrains)
	}
}
