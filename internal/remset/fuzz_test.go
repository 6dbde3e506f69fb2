package remset_test

import (
	"cmp"
	"slices"
	"testing"

	"beltway/internal/heap"
	"beltway/internal/remset"
)

// triple is one stored entry in the reference model.
type triple struct {
	src, tgt heap.Frame
	slot     heap.Addr
}

func compareTriples(a, b triple) int {
	if c := cmp.Compare(a.src, b.src); c != 0 {
		return c
	}
	if c := cmp.Compare(a.tgt, b.tgt); c != 0 {
		return c
	}
	return cmp.Compare(a.slot, b.slot)
}

// refModel is the obviously-correct shadow of remset.Table: every stored
// (src, tgt, slot) triple in one slice kept in ascending order, with no
// indexes, no compaction and no insert cache — everything the real table
// optimizes away. Its order is the order CollectRoots emits in.
type refModel []triple

func (m *refModel) insert(tr triple) bool {
	i, found := slices.BinarySearchFunc(*m, tr, compareTriples)
	if found {
		return false
	}
	*m = slices.Insert(*m, i, tr)
	return true
}

func (m refModel) contains(tr triple) bool {
	_, found := slices.BinarySearchFunc(m, tr, compareTriples)
	return found
}

func (m *refModel) deleteFrame(f heap.Frame) {
	*m = slices.DeleteFunc(*m, func(tr triple) bool { return tr.src == f || tr.tgt == f })
}

// collectRoots mirrors Table.CollectRoots: slots of sets with condemned
// target and un-condemned source are returned, in (src, tgt, slot)
// order, and removed; sets between two condemned frames stay (the
// caller's DeleteFrame handles those).
func (m *refModel) collectRoots(condemned func(heap.Frame) bool) []heap.Addr {
	var out []heap.Addr
	*m = slices.DeleteFunc(*m, func(tr triple) bool {
		if condemned(tr.tgt) && !condemned(tr.src) {
			out = append(out, tr.slot)
			return true
		}
		return false
	})
	return out
}

func (m refModel) targeting(pred func(heap.Frame) bool) int {
	n := 0
	for _, tr := range m {
		if pred(tr.tgt) {
			n++
		}
	}
	return n
}

func (m refModel) anyEntry(match func(src, tgt heap.Frame) bool) bool {
	return slices.ContainsFunc(m, func(tr triple) bool { return match(tr.src, tr.tgt) })
}

// numSets counts the distinct (src, tgt) pairs: adjacent in the order.
func (m refModel) numSets() int {
	n := 0
	for i, tr := range m {
		if i == 0 || tr.src != m[i-1].src || tr.tgt != m[i-1].tgt {
			n++
		}
	}
	return n
}

// FuzzRemsetTable drives remset.Table and the reference model with the
// same decoded command stream and asserts they agree on every observable
// after every command: total entry and set counts, per-target counts,
// membership of present and absent triples, AnyEntry, and the root
// sequence handed to a collection, order included — the order decides
// forwarding order. The table's insert cache, key index, per-frame
// lists, sorted/tail compaction, self-pair handling in DeleteFrame and
// its storage handed on through Release are all on trial.
func FuzzRemsetTable(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 0, 1, 2, 3, 8, 1, 0, 0, 10, 3, 0, 0})
	f.Add([]byte{0, 0, 0, 1, 0, 16, 16, 2, 9, 0, 0, 0, 11, 0, 0, 0})
	f.Add([]byte{0, 5, 5, 9, 0, 5, 6, 9, 10, 5, 0, 0, 0, 5, 5, 9})
	// Three sources into one target, inserted in ascending source
	// order, harvested together: they must come out in that order.
	f.Add([]byte{0, 0, 1, 7, 0, 2, 1, 3, 0, 4, 1, 5, 9, 1, 0, 0})
	// Release and rebuild mid-stream, then reuse the same pairs.
	f.Add([]byte{0, 1, 2, 3, 0, 2, 1, 4, 0, 1, 1, 5, 12, 0, 0, 0, 0, 1, 2, 3, 0, 2, 1, 7, 9, 0, 0, 0})
	// AnyEntry with and without a matching pair.
	f.Add([]byte{0, 2, 3, 1, 13, 0, 0, 0, 13, 1, 1, 0, 0, 5, 4, 2, 13, 2, 0, 0})
	// Contains on an absent slot, an absent pair and a present triple.
	f.Add([]byte{0, 3, 4, 5, 14, 3, 4, 6, 14, 4, 3, 5, 14, 3, 4, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		tbl := remset.NewTable()
		var model refModel
		const nFrames = 16
		frame := func(b byte) heap.Frame { return heap.Frame(1 + int(b)%nFrames) }
		for i := 0; i+4 <= len(data) && i < 4*4096; i += 4 {
			cmd, a, b, c := data[i], data[i+1], data[i+2], data[i+3]
			tr := triple{frame(a), frame(b), heap.Addr(1 + uint32(c)%96)}
			switch cmd % 16 {
			case 8:
				fr := frame(a)
				tbl.DeleteFrame(fr)
				model.deleteFrame(fr)
			case 9, 10:
				// Condemn a contiguous frame range, as increment
				// collection does.
				lo, n := 1+int(a)%nFrames, 1+int(b)%nFrames
				condemned := func(fr heap.Frame) bool {
					return int(fr) >= lo && int(fr) < lo+n
				}
				got := tbl.CollectRoots(condemned)
				want := model.collectRoots(condemned)
				if !slices.Equal(got, want) {
					t.Fatalf("CollectRoots(%d..%d) = %v, model %v", lo, lo+n, got, want)
				}
				// The collected frames are then deleted, as core does.
				for fr := lo; fr < lo+n; fr++ {
					tbl.DeleteFrame(heap.Frame(fr))
					model.deleteFrame(heap.Frame(fr))
				}
			case 11:
				parity := int(a) % 2
				pred := func(fr heap.Frame) bool { return int(fr)%2 == parity }
				if got, want := tbl.EntriesTargeting(pred), model.targeting(pred); got != want {
					t.Fatalf("EntriesTargeting(parity %d): %d, model %d", parity, got, want)
				}
			case 12:
				// A run ends; the next run's table starts on its storage.
				tbl = remset.NewTableFrom(tbl.Release())
				model = nil
			case 13:
				match := func(src, tgt heap.Frame) bool {
					return (int(src)+int(a))%3 == 0 && (int(tgt)+int(b))%2 == 0
				}
				if got, want := tbl.AnyEntry(match), model.anyEntry(match); got != want {
					t.Fatalf("AnyEntry(%d, %d) = %v, model %v", a, b, got, want)
				}
			case 14:
				if got, want := tbl.Contains(tr.src, tr.tgt, tr.slot), model.contains(tr); got != want {
					t.Fatalf("Contains(%d,%d,%v) = %v, model %v", tr.src, tr.tgt, tr.slot, got, want)
				}
			default: // insert, weighted 9/16 to build real populations
				got := tbl.Insert(tr.src, tr.tgt, tr.slot)
				want := model.insert(tr)
				if got != want {
					t.Fatalf("Insert(%d,%d,%v) new=%v, model new=%v", tr.src, tr.tgt, tr.slot, got, want)
				}
				if !tbl.Contains(tr.src, tr.tgt, tr.slot) {
					t.Fatalf("Contains(%d,%d,%v) false immediately after Insert", tr.src, tr.tgt, tr.slot)
				}
			}
			if got, want := tbl.TotalEntries(), len(model); got != want {
				t.Fatalf("TotalEntries %d, model %d", got, want)
			}
			if got, want := tbl.NumSets(), model.numSets(); got != want {
				t.Fatalf("NumSets %d, model %d", got, want)
			}
		}
		// Drain everything and require an empty table.
		tbl.CollectRoots(func(heap.Frame) bool { return true })
		for fr := 1; fr <= nFrames; fr++ {
			tbl.DeleteFrame(heap.Frame(fr))
		}
		if tbl.TotalEntries() != 0 || tbl.NumSets() != 0 {
			t.Fatalf("after full drain: %d entries, %d sets", tbl.TotalEntries(), tbl.NumSets())
		}
	})
}
