package core_test

import (
	"testing"

	"beltway/internal/collectors"
	"beltway/internal/core"
	"beltway/internal/gc"
	"beltway/internal/heap"
)

func losConfig(heapKB int, barrier core.BarrierKind) core.Config {
	cfg := collectors.XX100(25, testOptions(heapKB))
	cfg.Name += "+los"
	cfg.Barrier = barrier
	cfg.LOSThresholdBytes = cfg.FrameBytes / 2
	cfg.NurseryFilter = barrier == core.FrameBarrier
	return cfg
}

// TestLOSAllocationAndSpanAccess allocates objects bigger than a frame
// and verifies contiguous cross-frame access and address stability.
func TestLOSAllocationAndSpanAccess(t *testing.T) {
	m, types, h := newMutator(t, losConfig(512, core.FrameBarrier))
	big := types.DefineWordArray("big")
	n := 3 * 4096 / 4 // three frames of data words
	err := m.Run(func() {
		b := m.AllocGlobal(big, n)
		for i := 0; i < n; i += 97 {
			m.SetData(b, i, uint32(i))
		}
		addrBefore := h.Roots().Get(b)
		m.Collect(true)
		if h.Roots().Get(b) != addrBefore {
			t.Error("large object moved across a collection")
		}
		for i := 0; i < n; i += 97 {
			if got := m.GetData(b, i); got != uint32(i) {
				t.Fatalf("word %d = %d", i, got)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if h.LOSObjects() != 1 || h.LOSBytes() == 0 {
		t.Errorf("LOS bookkeeping: %d objects, %d bytes", h.LOSObjects(), h.LOSBytes())
	}
	if h.Clock().Counters.LOSBytesAllocated == 0 {
		t.Error("LOSBytesAllocated not counted")
	}
}

// TestLOSSweepReclaimsDeadObjects: dropped large objects are reclaimed
// at the next full collection, surviving ones are kept.
func TestLOSSweepReclaimsDeadObjects(t *testing.T) {
	m, types, h := newMutator(t, losConfig(512, core.FrameBarrier))
	big := types.DefineWordArray("big")
	err := m.Run(func() {
		keep := m.AllocGlobal(big, 2000)
		m.SetData(keep, 0, 42)
		var dead []gc.Handle
		for i := 0; i < 8; i++ {
			dead = append(dead, m.AllocGlobal(big, 2000))
		}
		if h.LOSObjects() != 9 {
			t.Fatalf("have %d LOS objects, want 9", h.LOSObjects())
		}
		for _, d := range dead {
			m.Release(d)
		}
		m.Collect(true) // full collection: sweep
		if h.LOSObjects() != 1 {
			t.Errorf("after sweep: %d LOS objects, want 1", h.LOSObjects())
		}
		if m.GetData(keep, 0) != 42 {
			t.Error("surviving large object corrupted")
		}
		if h.Clock().Counters.LOSBytesSwept == 0 {
			t.Error("LOSBytesSwept not counted")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestLOSPointersTracked: for all three barriers, a young object
// reachable only through a large object's slot must survive nursery
// collections, and a large object reachable only through another large
// object must survive sweeps.
func TestLOSPointersTracked(t *testing.T) {
	for _, barrier := range []core.BarrierKind{core.FrameBarrier, core.BoundaryBarrier, core.CardBarrier} {
		barrier := barrier
		t.Run(barrier.String(), func(t *testing.T) {
			m, types, h := newMutator(t, losConfig(512, barrier))
			bigRefs := types.DefineRefArray("bigrefs")
			leaf := types.DefineScalar("lleaf", 0, 1)
			filler := types.DefineScalar("lfill", 0, 14)
			err := m.Run(func() {
				lo := m.AllocGlobal(bigRefs, 1200) // > threshold: in LOS
				// LOS -> LOS edge.
				lo2 := m.AllocGlobal(bigRefs, 1200)
				m.SetRef(lo, 0, lo2)
				m.Release(lo2) // reachable only through lo
				for round := 0; round < 12; round++ {
					m.Push()
					l := m.Alloc(leaf, 0)
					m.SetData(l, 0, uint32(round))
					m.SetRef(lo, 1, l)
					m.Pop()
					m.Push()
					for i := 0; i < 500; i++ {
						m.Alloc(filler, 0)
					}
					m.Pop()
					m.Collect(false)
					m.Push()
					got := m.GetRef(lo, 1)
					if m.GetData(got, 0) != uint32(round) {
						t.Fatalf("round %d: young object via LOS slot lost/corrupt", round)
					}
					m.Pop()
				}
				m.Collect(true) // sweep; lo2 must survive via lo
				if m.RefIsNil(lo, 0) {
					t.Fatal("LOS->LOS edge lost")
				}
				if h.LOSObjects() != 2 {
					t.Errorf("after sweep: %d LOS objects, want 2", h.LOSObjects())
				}
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestLOSDisabledRejectsHugeObjects preserves the old behavior when the
// LOS is off (as in the paper's GCTk).
func TestLOSDisabledRejectsHugeObjects(t *testing.T) {
	types := heap.NewRegistry()
	h, err := core.New(collectors.XX100(25, testOptions(256)), types)
	if err != nil {
		t.Fatal(err)
	}
	big := types.DefineWordArray("big")
	if _, err := h.Alloc(big, 4096); err == nil {
		t.Error("frame-oversized object accepted without a LOS")
	}
}

// TestLOSOOM: a large object that cannot fit returns ErrOutOfMemory.
func TestLOSOOM(t *testing.T) {
	m, types, _ := newMutator(t, losConfig(128, core.FrameBarrier))
	big := types.DefineWordArray("big")
	err := m.Run(func() {
		for {
			m.AllocGlobal(big, 4000)
		}
	})
	if err == nil {
		t.Fatal("no OOM")
	}
	var oom *gc.OOMError
	if !asOOM(err, &oom) {
		t.Fatalf("want OOMError, got %v", err)
	}
}

func asOOM(err error, target **gc.OOMError) bool {
	for err != nil {
		if e, ok := err.(*gc.OOMError); ok {
			*target = e
			return true
		}
		u, ok := err.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
}

// TestLOSWithValidator runs a mixed small/large workload with the shadow
// oracle on — the validator's ForEachObject path must see LOS objects.
func TestLOSWithValidator(t *testing.T) {
	m, types, h := newMutator(t, losConfig(768, core.FrameBarrier))
	node := types.DefineScalar("ln", 2, 1)
	big := types.DefineRefArray("lbig")
	err := m.Run(func() {
		var keep []gc.Handle
		for i := 0; i < 4000; i++ {
			if i%200 == 0 {
				keep = append(keep, m.AllocGlobal(big, 1100))
			}
			hd := m.AllocGlobal(node, 0)
			if len(keep) > 0 && i%3 == 0 {
				m.SetRef(keep[len(keep)-1], i%1100, hd)
			}
			m.Release(hd)
			if len(keep) > 6 {
				m.Release(keep[0])
				keep = keep[1:]
			}
		}
		m.Collect(true)
	})
	if err != nil {
		t.Fatal(err)
	}
	if h.Collections() == 0 {
		t.Error("no collections")
	}
}

// TestLOSReachableOnlyFromBootSurvivesSweeps: a large object whose one
// referrer is a boot-image slot is live, and must outlast every sweeping
// (all-increments) collection under every barrier. No barrier remembers
// the store — boot and large-object frames share the maximal stamp — and
// a card barrier sees it once, on the dirty card of the first collection,
// so the second forced collection is the one that used to sweep it.
func TestLOSReachableOnlyFromBootSurvivesSweeps(t *testing.T) {
	o := testOptions(512)
	shapes := []struct {
		name string
		mk   func() core.Config
	}{
		{"flat", func() core.Config { return collectors.BSS(o) }},
		{"25.25.100", func() core.Config { return collectors.XX100(25, o) }},
	}
	for _, barrier := range []core.BarrierKind{core.FrameBarrier, core.BoundaryBarrier, core.CardBarrier} {
		for _, shape := range shapes {
			cfg := withLOS(shape.mk())
			cfg.Barrier = barrier
			cfg.NurseryFilter = false
			t.Run(barrier.String()+"/"+shape.name, func(t *testing.T) {
				m, types, h := newMutator(t, cfg)
				boot := types.DefineScalar("boot", 1, 0)
				bigRefs := types.DefineRefArray("bigrefs")
				leaf := types.DefineScalar("leaf", 0, 1)
				n := cfg.FrameBytes / heap.WordBytes // a frame of slots: spans two
				err := m.Run(func() {
					b := m.AllocImmortal(boot, 0)
					big := m.Alloc(bigRefs, n)
					l := m.Alloc(leaf, 0)
					m.SetData(l, 0, 7)
					m.SetRef(big, n-1, l) // kept alive through the large object alone
					m.SetRef(b, 0, big)
					m.Release(big)
					m.Release(l)
					for round := 0; round < 3; round++ {
						m.Collect(true)
						if h.LOSObjects() != 1 {
							t.Fatalf("collection %d: %d large objects, want the one the boot image holds", round, h.LOSObjects())
						}
						m.Push() // the handles GetRef returns are roots until Pop
						if got := m.GetData(m.GetRef(m.GetRef(b, 0), n-1), 0); got != 7 {
							t.Fatalf("collection %d: read %d through boot -> large -> leaf, want 7", round, got)
						}
						m.Pop()
					}
					m.SetRefNil(b, 0)
					m.Collect(true)
					if h.LOSObjects() != 0 {
						t.Errorf("%d large objects after the boot slot was cleared, want 0", h.LOSObjects())
					}
				})
				if err != nil {
					t.Fatal(err)
				}
				if err := h.CheckInvariants(); err != nil {
					t.Error(err)
				}
			})
		}
	}
}
