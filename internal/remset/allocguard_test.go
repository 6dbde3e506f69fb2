package remset

import (
	"testing"

	"beltway/internal/heap"
)

// Duplicate inserts are the barrier slow path's steady state (repeatedly
// mutated old-to-young slots); this guard pins them at zero allocations.
func TestDuplicateInsertZeroAlloc(t *testing.T) {
	tb := NewTable()
	// A set large enough to have both a sorted prefix and a tail.
	for i := 0; i < 2*tailMax; i++ {
		tb.Insert(1, 2, heap.Addr(0x1000+i*4))
	}
	for _, slot := range []heap.Addr{0x1000, heap.Addr(0x1000 + (2*tailMax-1)*4)} {
		slot := slot
		if n := testing.AllocsPerRun(100, func() {
			if tb.Insert(1, 2, slot) {
				t.Fatal("duplicate insert reported new")
			}
		}); n != 0 {
			t.Errorf("duplicate Insert of %v allocates %v times per op, want 0", slot, n)
		}
	}
}

// A cached-pair miss that still dedups must not allocate either.
func TestDuplicateInsertPairSwitchZeroAlloc(t *testing.T) {
	tb := NewTable()
	tb.Insert(1, 2, 0x1000)
	tb.Insert(3, 4, 0x2000)
	if n := testing.AllocsPerRun(100, func() {
		tb.Insert(1, 2, 0x1000)
		tb.Insert(3, 4, 0x2000)
	}); n != 0 {
		t.Errorf("pair-switching duplicate Insert allocates %v times per run, want 0", n)
	}
}

// Frames are collected and refilled all run long: a pair that DeleteFrame
// retired hands its set and index buckets to the next fresh pair, so the
// barrier slow path's first insert for a new frame pair stays off the Go
// allocator in steady state.
func TestFreshPairAfterDeleteFrameZeroAlloc(t *testing.T) {
	tb := NewTable()
	frame := heap.Frame(10)
	cycle := func() {
		for i := 0; i < tailMax+8; i++ { // past one tail compaction
			if !tb.Insert(frame, 2, heap.Addr(0x1000+i*4)) {
				t.Fatal("fresh-pair insert reported duplicate")
			}
		}
		tb.DeleteFrame(frame)
		frame++ // the next cycle's pair has never been seen
	}
	cycle()
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Errorf("insert into a fresh pair after DeleteFrame allocates %v times per cycle, want 0", n)
	}
	if tb.TotalEntries() != 0 || tb.NumSets() != 0 {
		t.Errorf("table not empty: %d entries in %d sets", tb.TotalEntries(), tb.NumSets())
	}
}

// The same for a collection's harvest: AppendRoots retires the sets it
// drains.
func TestFreshPairAfterAppendRootsZeroAlloc(t *testing.T) {
	tb := NewTable()
	var dst []heap.Addr
	tgt := heap.Frame(100)
	cond := func(f heap.Frame) bool { return f == tgt }
	cycle := func() {
		for src := heap.Frame(1); src <= 3; src++ {
			for i := 0; i < 20; i++ {
				tb.Insert(src, tgt, heap.Addr(0x1000+i*4))
			}
		}
		dst = tb.AppendRoots(dst[:0], cond)
		if len(dst) != 60 {
			t.Fatalf("harvested %d roots, want 60", len(dst))
		}
		tb.DeleteFrame(tgt)
		tgt++
	}
	cycle()
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Errorf("insert/harvest cycle over fresh target frames allocates %v times per cycle, want 0", n)
	}
}
