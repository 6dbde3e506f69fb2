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
// The table is keyed by a packed uint64 (src<<32 | tgt), the paper's
// rsidx, and each set is a sorted slot slice with a small unsorted tail:
// duplicate detection is a binary search over the sorted prefix plus a
// bounded linear scan, and the tail is merged in when it fills. Two
// per-frame indexes (by source and by target) let DeleteFrame,
// CollectRoots and EntriesTargeting touch only the sets involving the
// frames in question instead of scanning the whole table.
package remset

import (
	"fmt"
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

// set is one per-pair remembered set: a sorted, duplicate-free slice of
// slot addresses plus a bounded unsorted tail of recent inserts. Entries
// are deduplicated, as GCTk's hash-based remsets were; the insert attempt
// count (for barrier cost accounting) is tracked by the caller.
type set struct {
	sorted []heap.Addr // ascending, unique
	tail   []heap.Addr // recent inserts; unique, disjoint from sorted
}

func (s *set) len() int { return len(s.sorted) + len(s.tail) }

func (s *set) contains(a heap.Addr) bool {
	if _, ok := slices.BinarySearch(s.sorted, a); ok {
		return true
	}
	return slices.Contains(s.tail, a)
}

// insert adds a, reporting whether it was newly stored.
func (s *set) insert(a heap.Addr) bool {
	if s.contains(a) {
		return false
	}
	s.tail = append(s.tail, a)
	if len(s.tail) >= tailMax {
		s.compact()
	}
	return true
}

// compact merges the tail into the sorted prefix: sort the tail, grow the
// prefix, then merge the two runs back to front in place.
func (s *set) compact() {
	nt := len(s.tail)
	if nt == 0 {
		return
	}
	slices.Sort(s.tail)
	ns := len(s.sorted)
	s.sorted = append(s.sorted, s.tail...)
	i, j := ns-1, nt-1
	for k := ns + nt - 1; j >= 0; k-- {
		if i >= 0 && s.sorted[i] > s.tail[j] {
			s.sorted[k] = s.sorted[i]
			i--
		} else {
			s.sorted[k] = s.tail[j]
			j--
		}
	}
	s.tail = s.tail[:0]
}

// DebugSlot, when nonzero, logs every Insert/delete affecting that slot
// address (test instrumentation; zero in production).
var DebugSlot heap.Addr

// Table holds all remembered sets of a running collector.
type Table struct {
	sets  map[key]*set
	total int

	// Per-frame indexes: the keys of every live set with the given source
	// (resp. target) frame, and the stored-entry count per target frame.
	// They bound DeleteFrame and CollectRoots to the sets actually
	// touching a frame, and make EntriesTargeting — polled from the
	// allocation path by the remset trigger — O(distinct target frames).
	bySrc      map[heap.Frame][]key
	byTgt      map[heap.Frame][]key
	tgtEntries map[heap.Frame]int

	// single-entry insert cache: pointer stores cluster heavily by
	// (source, target) frame pair, so this avoids most map lookups.
	lastKey key
	lastSet *set

	matched []key // CollectRoots scratch, reused across collections

	// Retired sets and index buckets, handed back out by Insert with
	// their arrays emptied but kept: frames are collected and refilled
	// for a whole run, so in steady state the barrier slow path and a
	// collection's harvest take their storage from here, not from the Go
	// allocator.
	spareSets    []*set
	spareBuckets [][]key
}

// NewTable returns an empty remembered-set table.
func NewTable() *Table { return NewTableFrom(Storage{}) }

// Storage is what a released Table leaves behind: every set it held,
// emptied, on the spare list, every index bucket's array, and the
// CollectRoots scratch. The maps are not in it. Go ranges a map over
// every bucket it ever grew, so a map that once held a large run's frame
// pairs would slow every later run's AppendRoots and EntriesTargeting;
// they are built fresh.
type Storage struct {
	sets    []*set
	buckets [][]key
	matched []key
}

// NewTableFrom is NewTable drawing its sets and buckets from st first.
func NewTableFrom(st Storage) *Table {
	return &Table{
		sets:         make(map[key]*set),
		bySrc:        make(map[heap.Frame][]key),
		byTgt:        make(map[heap.Frame][]key),
		tgtEntries:   make(map[heap.Frame]int),
		matched:      st.matched,
		spareSets:    st.sets,
		spareBuckets: st.buckets,
	}
}

// Release empties the table into a Storage for the next one
// (NewTableFrom). The table is left without maps: any use afterwards
// panics rather than reach storage another run may own.
func (t *Table) Release() Storage {
	st := Storage{sets: t.spareSets, buckets: t.spareBuckets, matched: t.matched[:0]}
	for _, s := range t.sets {
		s.sorted, s.tail = s.sorted[:0], s.tail[:0]
		st.sets = append(st.sets, s)
	}
	for _, idx := range []map[heap.Frame][]key{t.bySrc, t.byTgt} {
		for _, bucket := range idx {
			st.buckets = append(st.buckets, bucket[:0])
		}
	}
	*t = Table{}
	return st
}

// Insert records slot (the address of a pointer field in frame src whose
// value points into frame tgt). It reports whether the entry was newly
// stored (false means it was a duplicate).
func (t *Table) Insert(src, tgt heap.Frame, slot heap.Addr) bool {
	k := makeKey(src, tgt)
	s := t.lastSet
	if s == nil || t.lastKey != k {
		s = t.sets[k]
		if s == nil {
			s = t.newSet()
			t.sets[k] = s
			t.addKey(t.bySrc, src, k)
			t.addKey(t.byTgt, tgt, k)
		}
		t.lastKey, t.lastSet = k, s
	}
	if !s.insert(slot) {
		return false
	}
	t.total++
	t.tgtEntries[tgt]++
	if DebugSlot != 0 && slot == DebugSlot {
		fmt.Printf("remset: insert (%d,%d) slot %v\n", src, tgt, slot)
	}
	return true
}

// takeLast pops the last element off a spare list, if it has one.
func takeLast[T any](spare *[]T) (v T, ok bool) {
	n := len(*spare)
	if n == 0 {
		return v, false
	}
	var zero T
	v, (*spare)[n-1] = (*spare)[n-1], zero
	*spare = (*spare)[:n-1]
	return v, true
}

// newSet returns an empty set, a retired one when there is one.
func (t *Table) newSet() *set {
	if s, ok := takeLast(&t.spareSets); ok {
		return s
	}
	return &set{}
}

// addKey appends k to the index bucket of frame f in idx, starting a
// frame's bucket on a retired array when there is one.
func (t *Table) addKey(idx map[heap.Frame][]key, f heap.Frame, k key) {
	bucket, ok := idx[f]
	if !ok {
		bucket, _ = takeLast(&t.spareBuckets)
	}
	idx[f] = append(bucket, k)
}

// retireBucket removes frame f's bucket from idx and keeps its array.
func (t *Table) retireBucket(idx map[heap.Frame][]key, f heap.Frame) {
	if bucket, ok := idx[f]; ok {
		delete(idx, f)
		t.spareBuckets = append(t.spareBuckets, bucket[:0])
	}
}

// dropKey removes k from the index bucket of frame f in idx.
func dropKey(idx map[heap.Frame][]key, f heap.Frame, k key) {
	bucket := idx[f]
	for i, kk := range bucket {
		if kk == k {
			bucket[i] = bucket[len(bucket)-1]
			idx[f] = bucket[:len(bucket)-1]
			return
		}
	}
}

// dropSet removes the set under k from the table and all indexes,
// adjusting the entry counts. keepSrc/keepTgt suppress index maintenance
// for a frame whose whole bucket the caller is about to discard.
func (t *Table) dropSet(k key, s *set, keepSrc, keepTgt bool) {
	n := s.len()
	t.total -= n
	tgt := k.tgt()
	if c := t.tgtEntries[tgt] - n; c > 0 {
		t.tgtEntries[tgt] = c
	} else {
		delete(t.tgtEntries, tgt)
	}
	delete(t.sets, k)
	s.sorted, s.tail = s.sorted[:0], s.tail[:0]
	t.spareSets = append(t.spareSets, s)
	if !keepSrc {
		dropKey(t.bySrc, k.src(), k)
	}
	if !keepTgt {
		dropKey(t.byTgt, tgt, k)
	}
}

// DeleteFrame removes every set in which f appears as source or target.
// Collected frames call this: entries out of a collected frame die with
// it (survivors re-insert during scanning), and entries into a collected
// frame have been consumed.
func (t *Table) DeleteFrame(f heap.Frame) {
	for _, k := range t.bySrc[f] {
		s := t.sets[k]
		if s == nil {
			continue // already dropped: the (f, f) self pair
		}
		if DebugSlot != 0 && s.contains(DebugSlot) {
			fmt.Printf("remset: DeleteFrame(%d) drops (%d,%d) holding slot %v\n",
				f, k.src(), k.tgt(), DebugSlot)
		}
		t.dropSet(k, s, true, k.tgt() == f)
	}
	t.retireBucket(t.bySrc, f)
	for _, k := range t.byTgt[f] {
		s := t.sets[k]
		if s == nil {
			continue // dropped by the source pass above
		}
		if DebugSlot != 0 && s.contains(DebugSlot) {
			fmt.Printf("remset: DeleteFrame(%d) drops (%d,%d) holding slot %v\n",
				f, k.src(), k.tgt(), DebugSlot)
		}
		t.dropSet(k, s, false, true)
	}
	t.retireBucket(t.byTgt, f)
	t.lastSet = nil
}

// TotalEntries returns the number of stored entries across all sets.
func (t *Table) TotalEntries() int { return t.total }

// EntriesTargeting counts stored entries whose target frame satisfies
// inTarget. The remset trigger (§3.3.3) compares this against its
// threshold; the per-target-frame counts make this one predicate call
// per distinct target frame rather than one per set.
func (t *Table) EntriesTargeting(inTarget func(heap.Frame) bool) int {
	n := 0
	for f, c := range t.tgtEntries {
		if inTarget(f) {
			n += c
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
	for f, bucket := range t.byTgt {
		if !condemned(f) {
			continue
		}
		for _, k := range bucket {
			if condemned(k.src()) {
				continue
			}
			matched = append(matched, k)
		}
	}
	// Deterministic order: packed keys sort by (src, tgt), then slot
	// address ascending within each set.
	slices.Sort(matched)
	for _, k := range matched {
		s := t.sets[k]
		if DebugSlot != 0 && s.contains(DebugSlot) {
			fmt.Printf("remset: CollectRoots consumes (%d,%d) holding slot %v\n",
				k.src(), k.tgt(), DebugSlot)
		}
		s.compact()
		dst = append(dst, s.sorted...)
		t.dropSet(k, s, false, false)
	}
	t.matched = matched[:0]
	t.lastSet = nil
	return dst
}

// NumSets returns the number of live (source, target) sets.
func (t *Table) NumSets() int { return len(t.sets) }

// AnyEntry reports whether any non-empty set's (source, target) pair
// satisfies match. The MOS train-death test uses it to ask "does any
// remembered pointer enter this train from outside it?".
func (t *Table) AnyEntry(match func(src, tgt heap.Frame) bool) bool {
	for k, s := range t.sets {
		if s.len() > 0 && match(k.src(), k.tgt()) {
			return true
		}
	}
	return false
}

// Contains reports whether the (src, tgt) set holds slot. It exists for
// the heap invariant checker; the collector itself never needs point
// lookups.
func (t *Table) Contains(src, tgt heap.Frame, slot heap.Addr) bool {
	s := t.sets[makeKey(src, tgt)]
	return s != nil && s.contains(slot)
}
