package remset

import (
	"slices"
	"testing"
	"testing/quick"

	"beltway/internal/heap"
)

func TestInsertAndDedup(t *testing.T) {
	tb := NewTable()
	if !tb.Insert(1, 2, 0x1000) {
		t.Error("first insert reported duplicate")
	}
	if tb.Insert(1, 2, 0x1000) {
		t.Error("duplicate insert reported new")
	}
	if !tb.Insert(1, 2, 0x1004) {
		t.Error("distinct slot reported duplicate")
	}
	if !tb.Insert(1, 3, 0x1000) {
		t.Error("same slot, distinct pair reported duplicate")
	}
	if tb.TotalEntries() != 3 {
		t.Errorf("TotalEntries = %d, want 3", tb.TotalEntries())
	}
	if tb.NumSets() != 2 {
		t.Errorf("NumSets = %d, want 2", tb.NumSets())
	}
}

func TestDeleteFrame(t *testing.T) {
	tb := NewTable()
	tb.Insert(1, 2, 0x1000) // deleted (source 1)
	tb.Insert(2, 1, 0x2000) // deleted (target 1)
	tb.Insert(2, 3, 0x3000) // kept
	tb.DeleteFrame(1)
	if tb.TotalEntries() != 1 {
		t.Errorf("TotalEntries = %d after DeleteFrame, want 1", tb.TotalEntries())
	}
	got := tb.CollectRoots(func(f heap.Frame) bool { return f == 3 })
	if len(got) != 1 || got[0] != 0x3000 {
		t.Errorf("surviving entry wrong: %v", got)
	}
}

func TestCollectRootsSelectsAndConsumes(t *testing.T) {
	tb := NewTable()
	tb.Insert(5, 1, 0xa0) // into condemned, from live -> root
	tb.Insert(5, 1, 0xb0) // ditto
	tb.Insert(1, 2, 0xc0) // between condemned frames -> ignored
	tb.Insert(5, 3, 0xd0) // into live frame -> untouched
	condemned := func(f heap.Frame) bool { return f == 1 || f == 2 }

	roots := tb.CollectRoots(condemned)
	if len(roots) != 2 {
		t.Fatalf("got %d roots, want 2: %v", len(roots), roots)
	}
	if roots[0] != 0xa0 || roots[1] != 0xb0 {
		t.Errorf("roots not in deterministic slot order: %v", roots)
	}
	// Matched sets are consumed.
	if again := tb.CollectRoots(condemned); len(again) != 0 {
		t.Errorf("second CollectRoots returned %v", again)
	}
	// (1,2) remains until DeleteFrame, (5,3) remains valid.
	if tb.TotalEntries() != 2 {
		t.Errorf("TotalEntries = %d, want 2", tb.TotalEntries())
	}
	tb.DeleteFrame(1)
	tb.DeleteFrame(2)
	if tb.TotalEntries() != 1 {
		t.Errorf("TotalEntries = %d after deletes, want 1", tb.TotalEntries())
	}
}

func TestCollectRootsDeterministicOrder(t *testing.T) {
	build := func() *Table {
		tb := NewTable()
		// Insert in scrambled order.
		tb.Insert(9, 1, 0x500)
		tb.Insert(2, 1, 0x300)
		tb.Insert(9, 1, 0x100)
		tb.Insert(2, 1, 0x900)
		tb.Insert(4, 3, 0x700)
		return tb
	}
	condemned := func(f heap.Frame) bool { return f == 1 || f == 3 }
	a := build().CollectRoots(condemned)
	b := build().CollectRoots(condemned)
	if len(a) != 5 || len(b) != 5 {
		t.Fatalf("lengths %d/%d, want 5", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("order not deterministic: %v vs %v", a, b)
		}
	}
}

func TestEntriesTargeting(t *testing.T) {
	tb := NewTable()
	tb.Insert(1, 7, 0x10)
	tb.Insert(2, 7, 0x20)
	tb.Insert(2, 8, 0x30)
	if n := tb.EntriesTargeting(func(f heap.Frame) bool { return f == 7 }); n != 2 {
		t.Errorf("EntriesTargeting(7) = %d, want 2", n)
	}
	if n := tb.EntriesTargeting(func(f heap.Frame) bool { return f == 9 }); n != 0 {
		t.Errorf("EntriesTargeting(9) = %d, want 0", n)
	}
}

func TestTotalEntriesInvariant(t *testing.T) {
	// Property: TotalEntries always equals the number of unique
	// (src,tgt,slot) triples inserted minus those removed.
	type op struct {
		Src, Tgt uint8
		Slot     uint16
	}
	prop := func(ops []op, del uint8) bool {
		tb := NewTable()
		var ref [][3]uint32
		for _, o := range ops {
			src, tgt := heap.Frame(o.Src%8+1), heap.Frame(o.Tgt%8+1)
			slot := heap.Addr(o.Slot) * 4
			tb.Insert(src, tgt, slot)
			if k := [3]uint32{uint32(src), uint32(tgt), uint32(slot)}; !slices.Contains(ref, k) {
				ref = append(ref, k)
			}
		}
		f := uint32(del%8 + 1)
		tb.DeleteFrame(heap.Frame(f))
		ref = slices.DeleteFunc(ref, func(k [3]uint32) bool { return k[0] == f || k[1] == f })
		return tb.TotalEntries() == len(ref)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
