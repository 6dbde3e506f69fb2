// Package remset implements the paper's remembered sets (§3.3.2): one
// distinct set per (source frame, target frame) pair, holding the
// addresses of pointer slots whose stored reference crosses from the
// source frame into the target frame in the "interesting" direction
// (target collected before source).
//
// Keying by frame pair gives the two properties the paper relies on:
// all sets relating to a frame can be deleted trivially when the frame is
// collected, and sets between two frames that happen to be collected
// together can be ignored wholesale.
//
// Frames are small dense integers, so the table is arrays indexed by
// them, with no Go map and no object per set:
//
//   - the sets are values in one pooled array (Table.sets), addressed by
//     index. Each holds its slot addresses in one array: a sorted,
//     duplicate-free prefix and a short unsorted tail of recent inserts.
//     Duplicate detection is a binary search over the prefix plus a
//     bounded linear scan of the tail, and the tail is merged in when it
//     fills;
//   - a set is found from its packed (src, tgt) key, the paper's rsidx,
//     through an open-addressed index of set numbers;
//   - one record per frame (Table.frames) heads two lists threaded
//     through the sets — those with that frame as source, and those with
//     it as target — and counts the entries targeting it. The lists are
//     doubly linked by set number, so dropping a set is O(1) and a frame
//     owns no array;
//   - the frames some set targets are listed densely (Table.tgtFrames).
//
// So DeleteFrame, AppendRoots and EntriesTargeting touch only the frames
// and sets involved, never the table's whole extent. Release hands every
// array on to the next table (NewTableFrom), so a table on released
// storage allocates nothing until it outgrows the last one.
package remset

import (
	"cmp"
	"slices"

	"beltway/internal/heap"
)

// key packs a (source frame, target frame) pair, mirroring the paper's
// rsidx = (s << REMSET_SHIFT) | t. Sorting keys ascending orders sets by
// (source, target), the deterministic order CollectRoots emits.
type key uint64

func makeKey(src, tgt heap.Frame) key { return key(uint64(src)<<32 | uint64(tgt)) }

func (k key) src() heap.Frame { return heap.Frame(k >> 32) }
func (k key) tgt() heap.Frame { return heap.Frame(k) }

// tailMax bounds each set's unsorted tail. Larger values amortize the
// merge better but lengthen the linear dedup scan; 48 entries keep both
// in the tens of nanoseconds.
const tailMax = 48

// The two lists of a frame, indexing set.link and frameIndex.head.
const (
	bySrc = iota
	byTgt
)

// link is a set's place in a list: the numbers of its neighbours, 0 at
// either end.
type link struct{ prev, next int32 }

// set is one per-pair remembered set. entries[:sorted] is ascending and
// duplicate-free; entries[sorted:] is the tail of recent inserts, unique,
// disjoint from the prefix and shorter than tailMax. A live set is never
// empty; a retired one keeps its array at length zero. Entries are
// deduplicated, as GCTk's hash-based remsets were; the insert attempt
// count (for barrier cost accounting) is tracked by the caller.
type set struct {
	key     key
	entries []heap.Addr
	sorted  int32
	link    [2]link // neighbours in the source frame's and the target frame's lists
}

func (s *set) contains(a heap.Addr) bool {
	if s.sorted > 0 { // a set whose tail never filled has no prefix
		if _, ok := slices.BinarySearch(s.entries[:s.sorted], a); ok {
			return true
		}
	}
	return slices.Contains(s.entries[s.sorted:], a)
}

// ref names a set: its key and its number, the index in Table.sets plus
// one, so the zero ref names none.
type ref struct {
	key key
	set int32
}

// frameIndex is what the table records about one frame.
type frameIndex struct {
	head    [2]int32 // first live set with this frame as source, as target; 0 for none
	entries int      // stored entries in the sets targeting this frame
	at      int32    // position in Table.tgtFrames while it heads a byTgt list
}

// Table holds all remembered sets of a running collector.
type Table struct {
	sets  []set   // live and retired sets; a set's number is its index + 1
	free  []int32 // numbers of the retired sets below len(sets)
	total int

	// index finds a live set by key: open addressing with linear probing
	// over a power-of-two array kept at most half full, home slot the top
	// bits of a multiplicative hash (shift = 64 - log2(len(index))).
	index []ref
	shift uint8

	frames    []frameIndex // indexed by frame
	tgtFrames []heap.Frame // frames some set targets, in no order

	// single-entry insert cache: pointer stores cluster heavily by
	// (source, target) frame pair, so this avoids most index probes.
	lastKey key
	last    int32 // set number, 0 for none

	matched []ref       // AppendRoots scratch, reused across collections
	scratch []heap.Addr // compact's copy of a tail
}

// minIndexBits is log2 of the index length of a table started from
// nothing.
const minIndexBits = 4

// NewTable returns an empty remembered-set table.
func NewTable() *Table { return NewTableFrom(Storage{}) }

// Storage is what a released Table leaves behind: every array it grew,
// emptied, with its capacity kept — the sets with theirs, the per-frame
// records, the key index and the harvest scratch.
type Storage struct{ t Table }

// NewTableFrom is NewTable building on st's arrays.
func NewTableFrom(st Storage) *Table {
	t := &st.t
	if t.index == nil {
		t.index, t.shift = make([]ref, 1<<minIndexBits), 64-minIndexBits
	}
	return t
}

// Release empties the table into a Storage for the next one
// (NewTableFrom). The table is left with no index, so any lookup or
// insert afterwards panics rather than reach storage another run may
// own.
func (t *Table) Release() Storage {
	for i := range t.sets {
		t.sets[i].entries = t.sets[i].entries[:0]
	}
	clear(t.frames)
	clear(t.index)
	st := Storage{Table{
		sets:      t.sets[:0],
		free:      t.free[:0],
		index:     t.index,
		shift:     t.shift,
		frames:    t.frames[:0],
		tgtFrames: t.tgtFrames[:0],
		matched:   t.matched[:0],
		scratch:   t.scratch[:0],
	}}
	*t = Table{}
	return st
}

// extend returns s at length n, taking the elements past its length
// (emptied by Release) before growing it.
func extend[T any](s []T, n int) []T {
	if n > cap(s) {
		s = append(s[:cap(s)], make([]T, n-cap(s))...)
	}
	return s[:n]
}

// Insert records slot (the address of a pointer field in frame src whose
// value points into frame tgt). It reports whether the entry was newly
// stored (false means it was a duplicate).
func (t *Table) Insert(src, tgt heap.Frame, slot heap.Addr) bool {
	k := makeKey(src, tgt)
	if t.last == 0 || t.lastKey != k {
		t.last, t.lastKey = t.setFor(k), k
	}
	s := &t.sets[t.last-1]
	if s.contains(slot) {
		return false
	}
	s.entries = append(s.entries, slot)
	if len(s.entries)-int(s.sorted) >= tailMax {
		t.compact(s)
	}
	t.total++
	t.frames[tgt].entries++
	return true
}

// compact merges s's tail into its sorted prefix: sort the tail in
// place, then, unless it already follows the prefix, merge a copy of it
// with the prefix back to front.
func (t *Table) compact(s *set) {
	ns := int(s.sorted)
	tail := s.entries[ns:]
	slices.Sort(tail)
	s.sorted = int32(len(s.entries))
	if len(tail) == 0 || ns == 0 || s.entries[ns-1] < tail[0] {
		return
	}
	t.scratch = append(t.scratch[:0], tail...)
	i, j := ns-1, len(t.scratch)-1
	for k := len(s.entries) - 1; j >= 0; k-- {
		if i >= 0 && s.entries[i] > t.scratch[j] {
			s.entries[k] = s.entries[i]
			i--
		} else {
			s.entries[k] = t.scratch[j]
			j--
		}
	}
}

// home is k's first probe position in the index.
func (t *Table) home(k key) int { return int(uint64(k) * 0x9e3779b97f4a7c15 >> t.shift) }

// probe returns the index position holding k, or the empty one where k
// would go.
func (t *Table) probe(k key) int {
	mask := len(t.index) - 1
	i := t.home(k)
	for t.index[i].set != 0 && t.index[i].key != k {
		i = (i + 1) & mask
	}
	return i
}

// lookup returns the number of k's set, 0 if it has none.
func (t *Table) lookup(k key) int32 { return t.index[t.probe(k)].set }

// setFor returns the number of k's set, making the set if it has none.
func (t *Table) setFor(k key) int32 {
	if n := t.lookup(k); n != 0 {
		return n
	}
	if 2*(t.NumSets()+1) > len(t.index) {
		t.growIndex()
	}
	var n int32
	if last := len(t.free) - 1; last >= 0 {
		n, t.free = t.free[last], t.free[:last]
	} else {
		t.sets = extend(t.sets, len(t.sets)+1)
		n = int32(len(t.sets))
	}
	t.index[t.probe(k)] = ref{k, n}
	src, tgt := k.src(), k.tgt()
	if top := int(max(src, tgt)) + 1; top > len(t.frames) {
		t.frames = extend(t.frames, top)
	}
	t.sets[n-1].key, t.sets[n-1].sorted = k, 0
	t.push(n, bySrc, src)
	if ft := &t.frames[tgt]; ft.head[byTgt] == 0 {
		ft.at, t.tgtFrames = int32(len(t.tgtFrames)), append(t.tgtFrames, tgt)
	}
	t.push(n, byTgt, tgt)
	return n
}

// push puts set n at the head of frame f's list on side.
func (t *Table) push(n int32, side int, f heap.Frame) {
	head := &t.frames[f].head[side]
	t.sets[n-1].link[side] = link{next: *head}
	if *head != 0 {
		t.sets[*head-1].link[side].prev = n
	}
	*head = n
}

// unlink takes set n out of frame f's list on side.
func (t *Table) unlink(n int32, side int, f heap.Frame) {
	l := t.sets[n-1].link[side]
	if l.prev != 0 {
		t.sets[l.prev-1].link[side].next = l.next
	} else {
		t.frames[f].head[side] = l.next
	}
	if l.next != 0 {
		t.sets[l.next-1].link[side].prev = l.prev
	}
}

// growIndex doubles the index and re-probes every key into it.
func (t *Table) growIndex() {
	old := t.index
	t.index = make([]ref, 2*len(old))
	t.shift--
	for _, r := range old {
		if r.set != 0 {
			t.index[t.probe(r.key)] = r
		}
	}
}

// unindex removes k from the index, shifting back any later key of the
// probe run that may no longer be reached past the hole.
func (t *Table) unindex(k key) {
	mask := len(t.index) - 1
	hole := t.probe(k)
	for j := (hole + 1) & mask; t.index[j].set != 0; j = (j + 1) & mask {
		// The key at j may fill the hole if its home is not in (hole, j].
		if (j-t.home(t.index[j].key))&mask >= (j-hole)&mask {
			t.index[hole] = t.index[j]
			hole = j
		}
	}
	t.index[hole] = ref{}
}

// dropSet removes set n from the index, its frames' lists and the entry
// counts, and retires it with its array emptied.
func (t *Table) dropSet(n int32) {
	s := &t.sets[n-1]
	src, tgt := s.key.src(), s.key.tgt()
	t.unindex(s.key)
	t.unlink(n, bySrc, src)
	t.unlink(n, byTgt, tgt)
	t.total -= len(s.entries)
	ft := &t.frames[tgt]
	ft.entries -= len(s.entries)
	if ft.head[byTgt] == 0 {
		moved := t.tgtFrames[len(t.tgtFrames)-1]
		t.tgtFrames[ft.at] = moved
		t.frames[moved].at = ft.at
		t.tgtFrames = t.tgtFrames[:len(t.tgtFrames)-1]
	}
	s.entries, s.sorted = s.entries[:0], 0
	t.free = append(t.free, n)
}

// DeleteFrame removes every set in which f appears as source or target.
// Collected frames call this: entries out of a collected frame die with
// it (survivors re-insert during scanning), and entries into a collected
// frame have been consumed.
func (t *Table) DeleteFrame(f heap.Frame) {
	if int(f) >= len(t.frames) {
		return
	}
	head := &t.frames[f].head
	for head[bySrc] != 0 {
		t.dropSet(head[bySrc])
	}
	for head[byTgt] != 0 {
		t.dropSet(head[byTgt])
	}
	t.last = 0
}

// TotalEntries returns the number of stored entries across all sets.
func (t *Table) TotalEntries() int { return t.total }

// EntriesTargeting counts stored entries whose target frame satisfies
// inTarget. The remset trigger (§3.3.3) compares this against its
// threshold; the per-target-frame counts make this one predicate call
// per distinct target frame rather than one per set.
func (t *Table) EntriesTargeting(inTarget func(heap.Frame) bool) int {
	n := 0
	for _, f := range t.tgtFrames {
		if inTarget(f) {
			n += t.frames[f].entries
		}
	}
	return n
}

// CollectRoots gathers, in deterministic order, every stored slot address
// from sets whose target frame is condemned and whose source frame is NOT
// condemned (sets between two condemned frames are ignored, per §3.3.2).
// The matched sets are removed from the table; the caller deletes the
// remaining sets touching condemned frames via DeleteFrame.
func (t *Table) CollectRoots(condemned func(heap.Frame) bool) []heap.Addr {
	return t.AppendRoots(nil, condemned)
}

// AppendRoots is CollectRoots appending into dst, so a caller with a
// reusable buffer collects without allocating.
func (t *Table) AppendRoots(dst []heap.Addr, condemned func(heap.Frame) bool) []heap.Addr {
	matched := t.matched[:0]
	for _, f := range t.tgtFrames {
		if !condemned(f) {
			continue
		}
		for n := t.frames[f].head[byTgt]; n != 0; n = t.sets[n-1].link[byTgt].next {
			if k := t.sets[n-1].key; !condemned(k.src()) {
				matched = append(matched, ref{k, n})
			}
		}
	}
	// Deterministic order: packed keys sort by (src, tgt), then slot
	// address ascending within each set.
	slices.SortFunc(matched, func(a, b ref) int { return cmp.Compare(a.key, b.key) })
	for _, r := range matched {
		s := &t.sets[r.set-1]
		t.compact(s)
		dst = append(dst, s.entries...)
		t.dropSet(r.set)
	}
	t.matched = matched[:0]
	t.last = 0
	return dst
}

// NumSets returns the number of live (source, target) sets.
func (t *Table) NumSets() int { return len(t.sets) - len(t.free) }

// AnyEntry reports whether any set's (source, target) pair satisfies
// match. The MOS train-death test uses it to ask "does any remembered
// pointer enter this train from outside it?".
func (t *Table) AnyEntry(match func(src, tgt heap.Frame) bool) bool {
	for _, f := range t.tgtFrames {
		for n := t.frames[f].head[byTgt]; n != 0; n = t.sets[n-1].link[byTgt].next {
			if match(t.sets[n-1].key.src(), f) {
				return true
			}
		}
	}
	return false
}

// Contains reports whether the (src, tgt) set holds slot. It exists for
// the heap invariant checker; the collector itself never needs point
// lookups.
func (t *Table) Contains(src, tgt heap.Frame, slot heap.Addr) bool {
	n := t.lookup(makeKey(src, tgt))
	return n != 0 && t.sets[n-1].contains(slot)
}
