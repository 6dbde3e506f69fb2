package collectors

import (
	"testing"

	"beltway/internal/core"
	"beltway/internal/gc"
	"beltway/internal/heap"
	"beltway/internal/vm"
)

func optsKB(heapKB int) Options {
	return Options{HeapBytes: heapKB * 1024, FrameBytes: 4096}
}

func TestPresetsValidate(t *testing.T) {
	for _, cfg := range []core.Config{Appel(optsKB(256)), Fixed(25, optsKB(256)), Appel3(optsKB(256))} {
		if err := cfg.Validate(); err != nil {
			t.Errorf("%s: %v", cfg.Name, err)
		}
		if cfg.Barrier != core.BoundaryBarrier {
			t.Errorf("%s: baselines must use the boundary barrier", cfg.Name)
		}
		if !cfg.FixedHalfReserve {
			t.Errorf("%s: baselines must use the classical half-heap reserve", cfg.Name)
		}
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Fixed(0) did not panic")
			}
		}()
		Fixed(0, optsKB(256))
	}()
}

// TestAppelNurseryThenFullCollections checks the Appel collection
// pattern: mostly nursery collections, with occasional full-heap
// collections once the mature space fills.
func TestAppelNurseryThenFullCollections(t *testing.T) {
	types := heap.NewRegistry()
	h, err := core.New(Appel(optsKB(512)), types)
	if err != nil {
		t.Fatal(err)
	}
	m := vm.New(h)
	node := types.DefineScalar("n", 0, 11)
	err = m.Run(func() {
		var keep []gc.Handle
		for i := 0; i < 30000; i++ {
			hd := m.AllocGlobal(node, 0)
			if i%7 == 0 {
				keep = append(keep, hd)
			} else {
				m.Release(hd)
			}
			if len(keep) > 900 {
				m.Release(keep[0])
				keep = keep[1:]
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	c := h.Clock().Counters
	if c.Collections < 5 {
		t.Fatalf("only %d collections", c.Collections)
	}
	if c.FullCollections == 0 {
		t.Error("Appel never performed a full-heap collection")
	}
	if c.FullCollections >= c.Collections {
		t.Error("Appel performed only full collections; nursery collections missing")
	}
	// The boundary barrier scans the boot image... no boot objects were
	// allocated here, so BootBytesScanned can be zero; check instead
	// that the fixed reserve held.
	if h.ReserveBytes() != 512*1024/2 {
		t.Errorf("Appel reserve = %d, want fixed half heap", h.ReserveBytes())
	}
}

// TestBoundaryBarrierScansBootImage verifies the §4.2.1 trade: the
// boundary barrier does not remember boot-image stores, so every
// collection rescans the boot image (and still finds its pointers).
func TestBoundaryBarrierScansBootImage(t *testing.T) {
	types := heap.NewRegistry()
	h, err := core.New(Appel(optsKB(256)), types)
	if err != nil {
		t.Fatal(err)
	}
	m := vm.New(h)
	m.EnableValidation()
	table := types.DefineScalar("boot", 4, 0)
	leaf := types.DefineScalar("leaf", 0, 1)
	filler := types.DefineScalar("fill", 0, 15)
	err = m.Run(func() {
		boot := m.AllocImmortal(table, 0)
		for round := 0; round < 8; round++ {
			for i := 0; i < 4; i++ {
				m.Push()
				l := m.Alloc(leaf, 0)
				m.SetData(l, 0, uint32(round*4+i))
				m.SetRef(boot, i, l)
				m.Pop()
			}
			m.Push()
			for i := 0; i < 800; i++ {
				m.Alloc(filler, 0)
			}
			m.Pop()
			m.Collect(false)
			for i := 0; i < 4; i++ {
				m.Push()
				l := m.GetRef(boot, i)
				if got := m.GetData(l, 0); got != uint32(round*4+i) {
					t.Fatalf("round %d slot %d: %d", round, i, got)
				}
				m.Pop()
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	c := h.Clock().Counters
	if c.BootBytesScanned == 0 {
		t.Error("boundary-barrier collector never scanned the boot image")
	}
	// Boot-image stores must NOT land in remembered sets under the
	// boundary barrier (that is the frame barrier's behaviour).
	if c.RemsetInserts > 0 {
		t.Errorf("boundary barrier recorded %d remset inserts from the boot image",
			c.RemsetInserts)
	}
}

// TestFixedNurseryFailsTighterThanAppel reproduces the Figure 6
// observation that fixed-nursery collectors need more memory: there is a
// heap size where Appel completes and Fixed 25 does not.
func TestFixedNurseryFailsTighterThanAppel(t *testing.T) {
	run := func(cfg core.Config) bool {
		types := heap.NewRegistry()
		h, err := core.New(cfg, types)
		if err != nil {
			t.Fatal(err)
		}
		m := vm.New(h)
		node := types.DefineScalar("n", 0, 11)
		err = m.Run(func() {
			var keep []gc.Handle
			for i := 0; i < 12000; i++ {
				hd := m.AllocGlobal(node, 0)
				if i%4 == 0 {
					keep = append(keep, hd)
				} else {
					m.Release(hd)
				}
				if len(keep) > 1000 {
					m.Release(keep[0])
					keep = keep[1:]
				}
			}
		})
		return err == nil
	}
	minFor := func(mk func(Options) core.Config) int {
		for kb := 64; kb <= 1024; kb += 4 {
			if run(mk(optsKB(kb))) {
				return kb
			}
		}
		t.Fatal("collector never completed")
		return 0
	}
	minAppel := minFor(Appel)
	minFixed := minFor(func(o Options) core.Config { return Fixed(25, o) })
	t.Logf("min heap: Appel %dKB, Fixed-25 %dKB", minAppel, minFixed)
	if minFixed <= minAppel {
		t.Errorf("Fixed 25 min heap (%dKB) not larger than Appel's (%dKB)", minFixed, minAppel)
	}
}
