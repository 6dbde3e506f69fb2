package remset

import (
	"testing"

	"beltway/internal/heap"
)

// foldShard mirrors shard.FoldFrame (importing internal/shard here
// would cycle): the exchange routes cross-shard references under source
// frames with the shard id in the top bits.
func foldShard(id int, f heap.Frame) heap.Frame { return f | heap.Frame(id)<<24 }

// TestShardedDuplicateInsertZeroAlloc pins the exchange's per-shard
// staging fast path: re-staging an already-routed reference is a
// duplicate Insert under a folded key and must not allocate, for any
// shard's key space.
func TestShardedDuplicateInsertZeroAlloc(t *testing.T) {
	tb := NewTable()
	for id := 0; id < 4; id++ {
		for j := 0; j < 8; j++ {
			tb.Insert(foldShard(id, 7), heap.Frame(id), heap.Addr(0x2000+j*4))
		}
	}
	for id := 0; id < 4; id++ {
		id := id
		if n := testing.AllocsPerRun(100, func() {
			if tb.Insert(foldShard(id, 7), heap.Frame(id), 0x2000) {
				t.Fatal("duplicate routed insert reported new")
			}
		}); n != 0 {
			t.Errorf("shard %d duplicate routed Insert allocates %v times per op, want 0", id, n)
		}
	}
}

// TestAppendRootsMatchedZeroAlloc pins the merge-side fast path: with a
// reusable destination buffer of sufficient capacity, a matched
// AppendRoots over compacted sets performs zero heap allocations —
// collection cost at the safepoint barrier is pure copying. One
// pre-built table is consumed per run (AppendRoots drains the matched
// sets), so tables are staged outside the measured function.
func TestAppendRootsMatchedZeroAlloc(t *testing.T) {
	const runs = 20
	build := func() *Table {
		tb := NewTable()
		for id := 0; id < 4; id++ {
			for j := 0; j < 32; j++ {
				tb.Insert(foldShard(id, 7), 100, heap.Addr(0x1000+j*8))
			}
		}
		// Compact every set so the collection's lazy compact is a no-op,
		// and pre-size the scratch the first collection would grow.
		for _, s := range tb.sets {
			s.compact()
		}
		tb.matched = make([]key, 0, 8)
		tb.spareSets = make([]*set, 0, 8)
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
			tb.Insert(foldShard(id, heap.Frame(j%4)), heap.Frame(50+id), heap.Addr(0x1000+j*8))
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
