package remset

import (
	"math/rand"
	"reflect"
	"testing"

	"beltway/internal/heap"
)

// driveTable runs a seeded script of inserts, frame deletions and root
// harvests over eight frames on t, and returns what the table said back:
// each insert's verdict, each harvest's slots, and the final entry and
// set counts.
func driveTable(t *Table, seed int64) []heap.Addr {
	rng := rand.New(rand.NewSource(seed))
	frame := func() heap.Frame { return heap.Frame(1 + rng.Intn(8)) }
	var out []heap.Addr
	for step := 0; step < 4000; step++ {
		switch op := rng.Intn(40); {
		case op < 36:
			fresh := heap.Addr(0)
			if t.Insert(frame(), frame(), heap.Addr(rng.Intn(256))*4) {
				fresh = 1
			}
			out = append(out, fresh)
		case op < 38:
			t.DeleteFrame(frame())
		default:
			c := frame()
			out = t.AppendRoots(out, func(f heap.Frame) bool { return f == c || f == c+1 })
		}
	}
	return append(out, heap.Addr(t.TotalEntries()), heap.Addr(t.NumSets()))
}

// TestTableFromSparesMatchesFresh: a table started on a released table's
// sets and buckets, fed the same script as a new one, must return the
// same verdicts and roots. A set pooled with an entry left in it would
// call a fresh insert a duplicate and harvest a slot nobody stored.
func TestTableFromSparesMatchesFresh(t *testing.T) {
	used := NewTable()
	driveTable(used, 1)
	if used.NumSets() == 0 {
		t.Fatal("the released table held no sets: nothing to recycle")
	}
	st := used.Release()
	warm := NewTableFrom(&st)
	if got, want := driveTable(warm, 2), driveTable(NewTable(), 2); !reflect.DeepEqual(got, want) {
		t.Errorf("a table on recycled spares diverged from a new one (%d and %d answers)", len(got), len(want))
	}
	defer func() {
		if recover() == nil {
			t.Error("Insert into the released table did not panic")
		}
	}()
	used.Insert(1, 2, 4)
}
