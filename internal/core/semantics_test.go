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

// TestBSSBehavesLikeSemiSpace checks the §3.1 equivalence: BSS has one
// belt with one increment, collects everything when the heap fills, and
// its dynamic copy reserve converges to the classic half heap.
func TestBSSBehavesLikeSemiSpace(t *testing.T) {
	m, types, h := newMutator(t, collectors.BSS(testOptions(256)))
	maxPreGCReserve := 0
	h.SetHooks(gc.Hooks{PreGC: func() {
		if r := h.ReserveBytes(); r > maxPreGCReserve {
			maxPreGCReserve = r
		}
	}})
	node := types.DefineScalar("ss", 0, 13)
	err := m.Run(func() {
		var keep []gc.Handle
		for i := 0; i < 8000; i++ {
			hd := m.AllocGlobal(node, 0)
			if i%8 == 0 {
				keep = append(keep, hd)
			} else {
				m.Release(hd)
			}
			if len(keep) > 300 {
				m.Release(keep[0])
				keep = keep[1:]
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if h.Collections() < 2 {
		t.Fatalf("only %d collections", h.Collections())
	}
	// Every collection of a single-belt single-increment collector
	// condemns the whole heap.
	if got := h.Clock().Counters.FullCollections; got != h.Collections() {
		t.Errorf("BSS: %d of %d collections were full; want all", got, h.Collections())
	}
	// The semi-space invariant: at collection time the dynamic reserve
	// has converged to (within a few frames of) the classic half heap.
	half := 256 * 1024 / 2
	if maxPreGCReserve < half-6*4096 || maxPreGCReserve > half {
		t.Errorf("BSS reserve at collection %d, want ~%d (half heap)", maxPreGCReserve, half)
	}
	// One belt, at most... exactly 1 increment between collections.
	if n := h.Belts()[0].Len(); n != 1 {
		t.Errorf("BSS holds %d increments, want 1", n)
	}
}

// TestBA2MatchesAppelCollections checks §4.2.1: Beltway 100.100 (the BA2
// configuration) behaves like the independently-implemented Appel
// baseline — same collection counts within a small tolerance (barrier
// and reserve details differ slightly) and similar copied volume.
func TestBA2MatchesAppelCollections(t *testing.T) {
	run := func(cfg core.Config) (uint64, uint64) {
		m, types, h := newMutator(t, cfg)
		node := types.DefineScalar("n", 1, 6)
		err := m.Run(func() {
			var keep []gc.Handle
			for i := 0; i < 20000; i++ {
				hd := m.AllocGlobal(node, 0)
				if i%10 == 0 {
					keep = append(keep, hd)
				} else {
					m.Release(hd)
				}
				if len(keep) > 500 {
					m.Release(keep[0])
					keep = keep[1:]
				}
			}
		})
		if err != nil {
			t.Fatalf("%s: %v", cfg.Name, err)
		}
		return h.Collections(), h.Clock().Counters.BytesCopied
	}
	// Give BA2 the same fixed half reserve as the baseline so only the
	// barrier mechanism differs.
	ba2 := collectors.BA2(testOptions(512))
	ba2.FixedHalfReserve = true
	gcsB, copiedB := run(ba2)
	gcsA, copiedA := run(collectors.Appel(testOptions(512)))
	if gcsA == 0 || gcsB == 0 {
		t.Fatalf("no collections: appel=%d ba2=%d", gcsA, gcsB)
	}
	ratio := float64(gcsB) / float64(gcsA)
	if ratio < 0.7 || ratio > 1.4 {
		t.Errorf("BA2 %d collections vs Appel %d; outside tolerance", gcsB, gcsA)
	}
	cr := float64(copiedB) / float64(copiedA)
	if cr < 0.6 || cr > 1.6 {
		t.Errorf("BA2 copied %d vs Appel %d; outside tolerance", copiedB, copiedA)
	}
}

// TestXXIncompleteOnCrossIncrementCycles reproduces the paper's §4.2.4
// observation: Beltway X.X cannot reclaim garbage cycles that span
// increments, while Beltway X.X.100 eventually does.
func TestXXIncompleteOnCrossIncrementCycles(t *testing.T) {
	build := func(cfg core.Config) *core.Heap {
		types := heap.NewRegistry()
		h, err := core.New(cfg, types)
		if err != nil {
			t.Fatal(err)
		}
		m := vm.New(h)
		node := types.DefineScalar("cyc", 2, 4)
		filler := types.DefineScalar("fil", 0, 14)
		err = m.Run(func() {
			// Build many 2-node cycles, forcing a nursery collection
			// between the two halves so the cycle spans increments,
			// then drop all roots.
			for c := 0; c < 60; c++ {
				a := m.AllocGlobal(node, 0)
				// Force promotion pressure between the halves.
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
			// Churn with medium-lived survivors: data flows through the
			// belts, so a complete collector eventually fills and
			// collects its top belt (reclaiming the cycles), while the
			// incomplete one only ever shuffles belt-1 increments.
			var keep []gc.Handle
			for i := 0; i < 20000; i++ {
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
			t.Fatalf("%s: %v", cfg.Name, err)
		}
		return h
	}

	count := func(h *core.Heap) int {
		n := 0
		h.ForEachObject(func(a heap.Addr) bool {
			if h.Space().TypeOf(a).Name == "cyc" {
				n++
			}
			return true
		})
		return n
	}

	hxx := build(collectors.XX(25, testOptions(512)))
	hc := build(collectors.XX100(25, testOptions(512)))
	leftXX, leftC := count(hxx), count(hc)
	t.Logf("dead cycle nodes retained: X.X=%d, X.X.100=%d", leftXX, leftC)
	if leftXX == 0 {
		t.Errorf("Beltway 25.25 reclaimed all cross-increment cycles; expected retention (incompleteness)")
	}
	if leftC >= leftXX {
		t.Errorf("Beltway 25.25.100 retained %d cycle nodes, not fewer than 25.25's %d",
			leftC, leftXX)
	}
}

// TestBOFBeltFlip drives BOF until its allocation belt empties and
// verifies the belts swap roles (the §3.1 "flip") and that data survives
// across flips.
func TestBOFBeltFlip(t *testing.T) {
	m, types, h := newMutator(t, collectors.BOF(25, testOptions(256)))
	node := types.DefineScalar("bof", 1, 6)
	initial := h.AllocBeltIndex()
	flipped := false
	err := m.Run(func() {
		var keep []gc.Handle
		for i := 0; i < 60000; i++ {
			hd := m.AllocGlobal(node, 0)
			m.SetData(hd, 0, uint32(i))
			if i%8 == 0 {
				keep = append(keep, hd)
			} else {
				m.Release(hd)
			}
			if len(keep) > 600 {
				// Verify an old survivor before dropping it.
				old := keep[0]
				if got := m.GetData(old, 0); got%8 != 0 {
					t.Fatalf("survivor corrupted: %d", got)
				}
				m.Release(old)
				keep = keep[1:]
			}
			if h.AllocBeltIndex() != initial {
				flipped = true
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if !flipped {
		t.Error("BOF never flipped belts")
	}
	if h.Collections() == 0 {
		t.Error("BOF never collected")
	}
}

// TestFIFOCollectionOrder verifies belts collect increments strictly
// oldest-first: under BOFM (one belt, many increments), the oldest
// increment's seq must be the minimum on the belt at every collection.
func TestFIFOCollectionOrder(t *testing.T) {
	cfg := collectors.BOFM(20, testOptions(256))
	types := heap.NewRegistry()
	h, err := core.New(cfg, types)
	if err != nil {
		t.Fatal(err)
	}
	var collectedSeqs []uint32
	h.SetHooks(gc.Hooks{PreGC: func() {
		b := h.Belts()[0]
		if b.Len() > 0 {
			collectedSeqs = append(collectedSeqs, b.Oldest().Seq())
		}
	}})
	m := vm.New(h)
	node := types.DefineScalar("fifo", 0, 10)
	err = m.Run(func() {
		for i := 0; i < 40000; i++ {
			m.Push()
			m.Alloc(node, 0)
			m.Pop()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(collectedSeqs) < 3 {
		t.Fatalf("too few collections to check FIFO: %d", len(collectedSeqs))
	}
	for i := 1; i < len(collectedSeqs); i++ {
		if collectedSeqs[i] <= collectedSeqs[i-1] {
			t.Errorf("collection %d condemned seq %d after seq %d; not FIFO",
				i, collectedSeqs[i], collectedSeqs[i-1])
		}
	}
}

// TestOOMReportsCleanly checks that an impossible live set produces
// ErrOutOfMemory (not a panic) on every configuration.
func TestOOMReportsCleanly(t *testing.T) {
	for _, cfg := range allConfigs(64) {
		cfg := cfg
		t.Run(cfg.Name, func(t *testing.T) {
			types := heap.NewRegistry()
			h, err := core.New(cfg, types)
			if err != nil {
				t.Fatal(err)
			}
			m := vm.New(h)
			node := types.DefineScalar("oom", 0, 30)
			err = m.Run(func() {
				for i := 0; ; i++ {
					m.AllocGlobal(node, 0) // never released: unbounded live set
				}
			})
			if !errors.Is(err, gc.ErrOutOfMemory) {
				t.Fatalf("want ErrOutOfMemory, got %v", err)
			}
		})
	}
}

// TestDynamicReserveFallsAfterTopBeltCollection checks the §3.3.4 claim
// directly: in X.X.100 the reserve is usually the small increment size,
// grows as data accumulates on the third belt, and "after we collect the
// third belt, the copy reserve automatically falls back to a smaller
// size".
func TestDynamicReserveFallsAfterTopBeltCollection(t *testing.T) {
	m, types, h := newMutator(t, collectors.XX100(25, testOptions(512)))
	node := types.DefineScalar("res", 0, 12)
	floor := h.ReserveBytes() // empty-heap reserve: the analytic floor
	err := m.Run(func() {
		// Permanent ballast, then forced collections to drain belts 0
		// and 1 so the ballast accumulates on the third belt.
		var ballast []gc.Handle
		for i := 0; i < 3000; i++ {
			ballast = append(ballast, m.AllocGlobal(node, 0))
		}
		for i := 0; i < 8; i++ {
			m.Collect(false)
		}
		if b2 := h.Belts()[2].Bytes(); b2 == 0 {
			t.Fatal("ballast never reached the third belt")
		}
		grown := h.ReserveBytes()
		if grown <= floor {
			t.Fatalf("reserve %d did not grow above the floor %d as the third belt filled",
				grown, floor)
		}

		// Release the ballast; the next third-belt collection reclaims
		// it and the reserve falls back.
		for _, b := range ballast {
			m.Release(b)
		}
		for i := 0; i < 8; i++ {
			m.Collect(false)
		}
		fallen := h.ReserveBytes()
		if fallen >= grown {
			t.Errorf("reserve did not fall back after the third belt was collected: %d -> %d",
				grown, fallen)
		}
		if fallen > floor+4*4096 {
			t.Errorf("reserve %d did not return near the floor %d", fallen, floor)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestBeltAccessorsReflectStructure checks the belt view tooling reads:
// belts keep their configured promotion targets and priorities (no BOF
// flip here), increments outside a MOS belt belong to no train, and a
// belt's bytes are its increments'.
func TestBeltAccessorsReflectStructure(t *testing.T) {
	m, types, h := newMutator(t, collectors.XX100(25, testOptions(512)))
	node := types.DefineScalar("snap", 0, 6)
	err := m.Run(func() {
		var keep []gc.Handle
		for i := 0; i < 8000; i++ {
			hd := m.AllocGlobal(node, 0)
			if i%5 == 0 {
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
	belts := h.Belts()
	if len(belts) != 3 {
		t.Fatalf("%d belts", len(belts))
	}
	for bi, b := range belts {
		if b.PromoteTo() != b.Spec().PromoteTo || b.Priority() != uint16(bi) {
			t.Errorf("belt %d promotes to %d at priority %d, configured %d at %d",
				bi, b.PromoteTo(), b.Priority(), b.Spec().PromoteTo, bi)
		}
		total := 0
		for _, in := range b.Increments() {
			total += in.Bytes()
			if in.Train() != -1 {
				t.Error("non-MOS increment reports a train")
			}
		}
		if total != b.Bytes() {
			t.Errorf("belt %d byte accounting: increments hold %d, belt reports %d", bi, total, b.Bytes())
		}
	}
}
