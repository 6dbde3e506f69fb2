package core_test

import (
	"testing"

	"beltway/internal/collectors"
	"beltway/internal/core"
	"beltway/internal/gc"
)

// Tests for the mark-region substrate wiring in core: in-place survival,
// opportunistic defragmentation, line reuse after sweeps, renewal
// re-sequencing, copy-traffic reduction against the copying substrate,
// and configuration validation. The substrate's bitmap mechanics are
// tested in internal/markregion; the whole-battery graph tests in
// core_test.go also run over mark-region configurations.

func immixConfig(heapKB int) core.Config {
	return collectors.Immix(testOptions(heapKB))
}

// TestMarkRegionInPlaceSurvival: a full collection of an Immix heap marks
// rooted survivors in place — the mark counters move, the copy counters
// barely do — and the heap stays structurally sound.
func TestMarkRegionInPlaceSurvival(t *testing.T) {
	m, types, h := newMutator(t, immixConfig(256))
	node := types.DefineScalar("node", 1, 2)
	const nodes = 500
	err := m.Run(func() {
		head := m.Alloc(node, 0)
		m.SetData(head, 0, 0)
		tail := head
		for i := 1; i < nodes; i++ {
			n := m.Alloc(node, 0)
			m.SetData(n, 0, uint32(i))
			m.SetRef(tail, 0, n)
			if tail != head {
				m.Release(tail)
			}
			tail = n
		}
		m.Collect(true)
		cur := head
		for i := 0; i < nodes; i++ {
			if got := m.GetData(cur, 0); got != uint32(i) {
				t.Fatalf("node %d holds %d after collection", i, got)
			}
			if m.RefIsNil(cur, 0) {
				if i != nodes-1 {
					t.Fatalf("list truncated at node %d", i)
				}
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
	c := h.Clock().Counters
	if c.MRObjectsMarked == 0 {
		t.Error("full collection marked no objects in place")
	}
	if c.MRObjectsMarked < c.ObjectsCopied {
		t.Errorf("marked %d but copied %d: survivors should stay in place",
			c.MRObjectsMarked, c.ObjectsCopied)
	}
	if err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestMarkRegionDefragEvacuatesSparseFrames forces fragmentation: dense
// frames whose occupants mostly die leave a few survivors scattered over
// many lines. The first collection sweeps in place (pre-trace occupancy
// is still dense); the second finds the frames sparse and evacuates them
// through the copying machinery.
func TestMarkRegionDefragEvacuatesSparseFrames(t *testing.T) {
	m, types, h := newMutator(t, immixConfig(512))
	node := types.DefineScalar("node", 1, 2)
	var kept []gc.Handle
	err := m.Run(func() {
		for i := 0; i < 4000; i++ {
			n := m.AllocGlobal(node, 0)
			m.SetData(n, 0, uint32(i))
			if i%61 == 0 {
				kept = append(kept, n)
			} else {
				m.Release(n)
			}
		}
		m.Collect(true) // dense: survivors marked, dead lines swept
		m.Collect(true) // now sparse: frames below MRDefragFrac evacuate
		for j, n := range kept {
			if got := m.GetData(n, 0); got != uint32(j*61) {
				t.Fatalf("survivor %d holds %d, want %d", j, got, j*61)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	c := h.Clock().Counters
	if c.MRFramesSwept == 0 {
		t.Error("no frame was swept in place")
	}
	if c.MRFramesEvacuated == 0 {
		t.Fatal("defragmentation never evacuated a sparse frame")
	}
	if c.MRLinesReclaimed == 0 {
		t.Error("sweeps reclaimed no lines")
	}
	if err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestMarkRegionReusesSweptLines: after a collection, the mutator
// allocates into the swept holes of kept frames before mapping any new
// frame.
func TestMarkRegionReusesSweptLines(t *testing.T) {
	m, types, h := newMutator(t, immixConfig(256))
	node := types.DefineScalar("node", 1, 2)
	err := m.Run(func() {
		var kept []gc.Handle
		for i := 0; i < 2000; i++ {
			n := m.AllocGlobal(node, 0)
			if i%40 == 0 {
				kept = append(kept, n)
			} else {
				m.Release(n)
			}
		}
		m.Collect(true)
		mapped := h.Clock().Counters.FramesMapped
		for i := 0; i < 500; i++ {
			m.Release(m.AllocGlobal(node, 0))
		}
		if got := h.Clock().Counters.FramesMapped; got != mapped {
			t.Errorf("allocation mapped %d new frames despite free line runs", got-mapped)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestMarkRegionRenewalResequences: collecting a mark-region increment
// renews it — same increment, fresh (higher) FIFO sequence at the back
// of its belt — rather than destroying it.
func TestMarkRegionRenewalResequences(t *testing.T) {
	m, types, h := newMutator(t, immixConfig(256))
	node := types.DefineScalar("node", 1, 2)
	err := m.Run(func() {
		keep := m.AllocGlobal(node, 0)
		m.SetData(keep, 0, 7)
		for i := 0; i < 200; i++ {
			m.Release(m.AllocGlobal(node, 0))
		}
		belt := h.Belts()[0]
		if belt.Len() == 0 {
			t.Fatal("expected a live increment on the single belt")
		}
		seq0 := belt.Increments()[0].Seq()
		m.Collect(false)
		if belt.Len() == 0 {
			t.Fatal("expected a live increment on the single belt after the collection")
		}
		if seq1 := belt.Increments()[0].Seq(); seq1 <= seq0 {
			t.Errorf("renewal did not advance the sequence: %d -> %d", seq0, seq1)
		}
		if belt.Spec().Substrate != core.MarkRegion {
			t.Error("the belt lost its substrate")
		}
		if got := m.GetData(keep, 0); got != 7 {
			t.Errorf("survivor holds %d, want 7", got)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestMarkRegionReducesCopyTraffic runs the same long-lived workload
// under Beltway 25.25.100 with a copying and with a mark-region mature
// belt: repeated full collections must copy substantially fewer bytes
// once mature survivors are marked in place.
func TestMarkRegionReducesCopyTraffic(t *testing.T) {
	run := func(cfg core.Config) uint64 {
		m, types, h := newMutator(t, cfg)
		node := types.DefineScalar("node", 1, 2)
		err := m.Run(func() {
			var kept []gc.Handle
			for i := 0; i < 2000; i++ {
				n := m.AllocGlobal(node, 0)
				if i%4 == 0 {
					kept = append(kept, n)
				} else {
					m.Release(n)
				}
			}
			for i := 0; i < 5; i++ {
				m.Collect(true)
			}
			_ = kept
		})
		if err != nil {
			t.Fatalf("%s: %v", cfg.Name, err)
		}
		if err := h.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", cfg.Name, err)
		}
		return h.Clock().Counters.BytesCopied
	}
	o := testOptions(512)
	base := run(collectors.XX100(25, o))
	mr := run(collectors.WithMarkRegion(collectors.XX100(25, o)))
	if mr >= base {
		t.Errorf("mark-region mature belt copied %d bytes, copying belt %d: expected a reduction", mr, base)
	}
}

// TestMarkRegionAllocZeroAlloc pins the mutator's mark-region bump path
// (line bookkeeping included) at zero Go-heap allocations.
func TestMarkRegionAllocZeroAlloc(t *testing.T) {
	o := collectors.Options{HeapBytes: 64 << 20, FrameBytes: 64 << 10}
	h, node := benchHeap(t, collectors.Immix(o))
	mustAlloc(t, h, node) // open the first increment and frame
	if n := testing.AllocsPerRun(100, func() {
		if _, err := h.Alloc(node, 0); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("mark-region alloc path allocates %v times per op, want 0", n)
	}
}

// TestMarkRegionConfigValidation checks the substrate's structural rules.
func TestMarkRegionConfigValidation(t *testing.T) {
	o := testOptions(64)
	good := collectors.WithMarkRegion(collectors.XX100(25, o))
	if err := good.Validate(); err != nil {
		t.Fatalf("valid mark-region config rejected: %v", err)
	}

	bad := good
	bad.MRDefragFrac = 1.0
	if bad.Validate() == nil {
		t.Error("MRDefragFrac 1.0 accepted")
	}

	bad = good
	bad.Barrier = core.CardBarrier
	if bad.Validate() == nil {
		t.Error("mark-region with card barrier accepted")
	}

	bad = good
	bad.MRLineBytes = 100 // not a power of two
	if bad.Validate() == nil {
		t.Error("line size 100 accepted")
	}

	bad = good
	bad.MRLineBytes = bad.FrameBytes // fewer than two lines per frame
	if bad.Validate() == nil {
		t.Error("one-line frames accepted")
	}

	bof := collectors.BOF(25, o)
	bof.Belts[1].Substrate = core.MarkRegion
	if bof.Validate() == nil {
		t.Error("mark-region with older-first accepted")
	}

	mos := collectors.XXMOS(25, o)
	mos.Belts[2].Substrate = core.MarkRegion
	if mos.Validate() == nil {
		t.Error("mark-region with MOS accepted")
	}
}
