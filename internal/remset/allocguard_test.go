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
// retired hands its set, slot array and all, to the next fresh pair, and
// a frame's lists live in the sets, so the barrier slow path's first
// insert for a new frame pair stays off the Go allocator in steady state.
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

// warmScript drives tb through a fixed script over 24 frames — inserts,
// frame deletes, and harvests into *dst — the same on every call.
func warmScript(tb *Table, dst *[]heap.Addr) {
	x := uint32(1)
	next := func(n uint32) uint32 {
		x = x*1664525 + 1013904223
		return (x >> 8) % n
	}
	frame := func() heap.Frame { return heap.Frame(1 + next(24)) }
	for step := 0; step < 20000; step++ {
		switch op := next(50); {
		case op < 46:
			tb.Insert(frame(), frame(), heap.Addr(next(1024))*4)
		case op < 48:
			tb.DeleteFrame(frame())
		default:
			c := frame()
			*dst = tb.AppendRoots((*dst)[:0], func(f heap.Frame) bool { return f == c || f == c+1 })
		}
	}
}

// TestWarmTableZeroAlloc: a table built on a released table's Storage
// has every array the same work grew, so replaying that work — its
// inserts, harvests and frame deletes — allocates nothing. Each measured
// replay gets a table of its own, built beforehand.
func TestWarmTableZeroAlloc(t *testing.T) {
	const runs = 5
	var dst []heap.Addr
	tables := make([]*Table, runs+1)
	for i := range tables {
		used := NewTable()
		warmScript(used, &dst)
		if used.NumSets() == 0 {
			t.Fatal("the script left no sets: nothing for Release to hand on")
		}
		st := used.Release()
		tables[i] = NewTableFrom(&st)
	}
	next := 0
	if n := testing.AllocsPerRun(runs, func() {
		warmScript(tables[next], &dst)
		next++
	}); n != 0 {
		t.Errorf("replaying a script on a warm table allocates %v times, want 0", n)
	}
}

// TestAppendRootsMatchedZeroAlloc pins the harvest fast path: with a
// reusable destination buffer of sufficient capacity, a matched
// AppendRoots over compacted sets performs zero heap allocations — a
// collection's harvest is pure copying. One pre-built table is consumed
// per run (AppendRoots drains the matched sets), so tables are staged
// outside the measured function.
func TestAppendRootsMatchedZeroAlloc(t *testing.T) {
	const runs = 20
	build := func() *Table {
		tb := NewTable()
		for id := 0; id < 4; id++ {
			for j := 0; j < 32; j++ {
				tb.Insert(heap.Frame(1+id), 100, heap.Addr(0x1000+j*8))
			}
		}
		// Compact every set so the collection's lazy compact is a no-op,
		// and pre-size the scratch the first collection would grow.
		for i := range tb.sets {
			tb.compact(&tb.sets[i])
		}
		tb.matched = make([]ref, 0, 8)
		tb.free = make([]int32, 0, 8)
		return tb
	}
	tables := make([]*Table, 0, runs+2)
	for i := 0; i < runs+2; i++ {
		tables = append(tables, build())
	}
	next := 0
	dst := make([]heap.Addr, 0, 4*32)
	cond := func(f heap.Frame) bool { return f == 100 }
	if n := testing.AllocsPerRun(runs, func() {
		tb := tables[next]
		next++
		dst = tb.AppendRoots(dst[:0], cond)
		if len(dst) != 4*32 {
			t.Fatalf("collected %d roots, want %d", len(dst), 4*32)
		}
	}); n != 0 {
		t.Errorf("matched AppendRoots with reusable buffer allocates %v times per op, want 0", n)
	}
}

// TestAppendRootsNoMatchZeroAlloc pins the scan path: polling a
// populated table with nothing condemned allocates nothing.
func TestAppendRootsNoMatchZeroAlloc(t *testing.T) {
	tb := NewTable()
	for id := 0; id < 4; id++ {
		for j := 0; j < 32; j++ {
			tb.Insert(heap.Frame(4*id+j%4), heap.Frame(50+id), heap.Addr(0x1000+j*8))
		}
	}
	var dst []heap.Addr
	none := func(heap.Frame) bool { return false }
	if n := testing.AllocsPerRun(100, func() {
		dst = tb.AppendRoots(dst[:0], none)
		if len(dst) != 0 {
			t.Fatal("collected roots with nothing condemned")
		}
	}); n != 0 {
		t.Errorf("no-match AppendRoots allocates %v times per op, want 0", n)
	}
}
