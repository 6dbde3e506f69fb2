package core_test

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"beltway/internal/collectors"
	"beltway/internal/core"
	"beltway/internal/gc"
	"beltway/internal/heap"
	"beltway/internal/stats"
	"beltway/internal/vm"
)

// kernelTrace is everything one kernel run left behind that the other
// must reproduce bit for bit: after every collection the whole heap image
// (every word of every mapped frame), the counters and the clock, plus
// the sequence of moves the collector reported.
type kernelTrace struct {
	collections []kernelPoint
	moves       uint64 // FNV of every Moved(from, to), in order
	bootScans   uint64
	cardsSeen   uint64
	mrMarked    uint64
	err         error
}

type kernelPoint struct {
	image    uint64 // FNV over (frame number, words) of every mapped frame
	counters stats.Counters
	now      uint64 // math.Float64bits of the clock
}

func heapImage(sp *heap.Space) uint64 {
	hash := fnv.New64a()
	var b [4]byte
	put := func(w uint32) {
		b[0], b[1], b[2], b[3] = byte(w), byte(w>>8), byte(w>>16), byte(w>>24)
		hash.Write(b[:])
	}
	for f := heap.Frame(1); int(f) < sp.NumFrames(); f++ {
		if !sp.Mapped(f) {
			continue
		}
		put(uint32(f))
		for _, w := range sp.FrameSlab(f) {
			put(w)
		}
	}
	return hash.Sum64()
}

// runKernelScript drives cfg with a seeded random object graph — scalars
// of several shapes, reference and word arrays and a boot image that
// points into the heap — under enough pressure to collect often. prep,
// when not nil, sees the heap before the first operation: it installs the
// word kernel, or adds hooks of its own to the ones set here.
func runKernelScript(cfg core.Config, seed int64, prep func(*core.Heap)) kernelTrace {
	var tr kernelTrace
	// The default cost model is almost all dyadic, and sums of dyadic
	// charges are exact in any order. Thirds and tenths make the clock
	// round at every charge, so that a charge moved, merged or reordered
	// by one kernel shows in its bits.
	cfg.Costs = stats.DefaultCosts()
	cfg.Costs.ScanSlot, cfg.Costs.RootSlot, cfg.Costs.RemsetEntry = 2.1, 4.3, 10.7
	cfg.Costs.CopyByte, cfg.Costs.MarkObject, cfg.Costs.FrameOp = 1.0/3, 8.9, 500.1
	types := heap.NewRegistry()
	h, err := core.New(cfg, types)
	if err != nil {
		tr.err = err
		return tr
	}
	moves := fnv.New64a()
	h.SetHooks(gc.Hooks{
		Moved: func(from, to heap.Addr) { fmt.Fprintf(moves, "%d>%d,", from, to) },
		PostGC: func() {
			tr.collections = append(tr.collections, kernelPoint{
				image:    heapImage(h.Space()),
				counters: h.Clock().Counters,
				now:      math.Float64bits(h.Clock().Now()),
			})
		},
	})
	if prep != nil {
		prep(h)
	}
	m := vm.New(h)
	rng := rand.New(rand.NewSource(seed))
	scalars := []*heap.TypeDesc{
		types.DefineScalar("pair", 2, 2),
		types.DefineScalar("wide", 5, 1),
		types.DefineScalar("leaf", 0, 6),
	}
	refs := types.DefineRefArray("refs")
	words := types.DefineWordArray("words")
	boot := types.DefineScalar("boot", 3, 0)

	var live []gc.Handle
	drop := func() {
		i := rng.Intn(len(live))
		m.Release(live[i])
		live[i] = live[len(live)-1]
		live = live[:len(live)-1]
	}
	numRefs := func(hd gc.Handle) int { return m.TypeOf(hd).NumRefs(m.Length(hd)) }
	tr.err = m.Run(func() {
		var boots []gc.Handle
		for i := 0; i < 6; i++ {
			boots = append(boots, m.AllocImmortal(boot, 0))
		}
		live = append(live, m.Alloc(scalars[0], 0))
		for op := 0; op < 12000; op++ {
			switch r := rng.Intn(100); {
			case r < 40:
				live = append(live, m.Alloc(scalars[rng.Intn(len(scalars))], 0))
			case r < 47:
				live = append(live, m.Alloc(refs, 1+rng.Intn(40)))
			case r < 50:
				hd := m.Alloc(words, 1+rng.Intn(30))
				m.SetData(hd, 0, uint32(op))
				live = append(live, hd)
			case r < 85:
				src := live[rng.Intn(len(live))]
				if n := numRefs(src); n > 0 {
					m.SetRef(src, rng.Intn(n), live[rng.Intn(len(live))])
				}
			case r < 88:
				src := live[rng.Intn(len(live))]
				if n := numRefs(src); n > 0 {
					m.SetRefNil(src, rng.Intn(n))
				}
			case r < 92:
				m.SetRef(boots[rng.Intn(len(boots))], rng.Intn(3), live[rng.Intn(len(live))])
			case r < 93:
				m.Collect(rng.Intn(4) == 0)
			default:
				if len(live) > 8 {
					drop()
				}
			}
			for len(live) > 400 {
				drop()
			}
		}
		m.Collect(true)
	})
	c := h.Clock().Counters
	tr.moves = moves.Sum64()
	tr.bootScans, tr.cardsSeen = c.BootBytesScanned, c.CardsScanned
	tr.mrMarked = c.MRObjectsMarked
	h.Space().Release()
	return tr
}

// kernelCase is one configuration of the kernel tests: every substrate and
// barrier the walkers specialise on.
type kernelCase struct {
	cfg  core.Config
	used func(kernelTrace) bool // the run exercised what the row is for
}

func kernelCases(t *testing.T) []kernelCase {
	o := testOptions(256)
	parse := func(spec string) core.Config {
		cfg, err := collectors.Parse(spec, o)
		if err != nil {
			t.Fatal(err)
		}
		return cfg
	}
	return []kernelCase{
		{collectors.BSS(o), nil},
		{collectors.XX100(25, o), nil},
		{parse("25.25-mr"), func(tr kernelTrace) bool { return tr.mrMarked > 0 }},
		{collectors.Immix(o), func(tr kernelTrace) bool { return tr.mrMarked > 0 }},
		{collectors.XXMOS(25, o), nil},
		{collectors.WithCardBarrier(collectors.XX100(25, o)),
			func(tr kernelTrace) bool { return tr.cardsSeen > 0 }},
		{collectors.Appel(o), func(tr kernelTrace) bool { return tr.bootScans > 0 }},
	}
}

// TestSlabKernelMatchesWordKernel is the reference-model test for the
// trace kernel: the slab-resident forward/scan and the word-at-a-time
// one it replaced must leave the same heap, counters and clock after
// every collection of the same random graphs.
func TestSlabKernelMatchesWordKernel(t *testing.T) {
	for _, tc := range kernelCases(t) {
		tc := tc
		t.Run(tc.cfg.Name, func(t *testing.T) {
			for seed := int64(1); seed <= 3; seed++ {
				slab := runKernelScript(tc.cfg, seed, nil)
				word := runKernelScript(tc.cfg, seed, (*core.Heap).UseWordKernel)
				if fmt.Sprint(slab.err) != fmt.Sprint(word.err) {
					t.Fatalf("seed %d: slab kernel ended %v, word kernel %v", seed, slab.err, word.err)
				}
				if len(slab.collections) < 10 {
					t.Fatalf("seed %d: only %d collections; kernel unexercised", seed, len(slab.collections))
				}
				if tc.used != nil && !tc.used(slab) {
					t.Errorf("seed %d: run did not exercise its row: %+v", seed, slab)
				}
				if len(slab.collections) != len(word.collections) {
					t.Fatalf("seed %d: %d collections under the slab kernel, %d under the word kernel",
						seed, len(slab.collections), len(word.collections))
				}
				for i, got := range slab.collections {
					want := word.collections[i]
					if got.counters != want.counters {
						t.Fatalf("seed %d, collection %d: counters\n slab %+v\n word %+v", seed, i, got.counters, want.counters)
					}
					if got.now != want.now {
						t.Fatalf("seed %d, collection %d: clock %v, word kernel %v", seed, i,
							math.Float64frombits(got.now), math.Float64frombits(want.now))
					}
					if got.image != want.image {
						t.Fatalf("seed %d, collection %d: heap images differ", seed, i)
					}
				}
				if slab.moves != word.moves {
					t.Errorf("seed %d: Moved hook saw a different sequence of moves", seed)
				}
			}
		})
	}
}

// collectionLog records what the hooks and the tuner of one run saw, for
// TestCollectionConservation.
type collectionLog struct {
	order  []byte // one letter per hook call: B C E O P, T for the tuner
	sum    gc.GCEndInfo
	begins []gc.GCBeginInfo
}

func (l *collectionLog) Tune(core.TuneInput) []core.KnobUpdate {
	l.order = append(l.order, 'T')
	return nil
}

// TestCollectionConservation checks the finish phase's books: what the
// GCEnd hook reports, summed over a run, is what the run's counters and
// clock hold — every charge and count of a collection falls between its
// snapshot and its GCEnd — and each collection's hooks fire once, in the
// documented order, the tuner after all of them.
func TestCollectionConservation(t *testing.T) {
	for _, tc := range kernelCases(t) {
		tc := tc
		t.Run(tc.cfg.Name, func(t *testing.T) {
			log := &collectionLog{}
			cfg := tc.cfg
			cfg.Policy = log
			var clock *stats.Clock
			tr := runKernelScript(cfg, 1, func(h *core.Heap) {
				clock = h.Clock()
				note := func(b byte) { log.order = append(log.order, b) }
				h.SetHooks(h.Hooks().Merge(gc.Hooks{
					GCBegin:   func(i gc.GCBeginInfo) { note('B'); log.begins = append(log.begins, i) },
					Condemned: func(gc.IncrementInfo) { note('C') },
					GCEnd: func(e gc.GCEndInfo) {
						note('E')
						s := &log.sum
						s.Duration += e.Duration
						s.BytesCopied += e.BytesCopied
						s.ObjectsCopied += e.ObjectsCopied
						s.RemsetEntries += e.RemsetEntries
						s.CardsScanned += e.CardsScanned
						s.BootBytesScanned += e.BootBytesScanned
						s.MRObjectsMarked += e.MRObjectsMarked
						s.MRBytesMarked += e.MRBytesMarked
						s.MRFramesEvacuated += e.MRFramesEvacuated
					},
					Occupancy: func(gc.BeltStat) { note('O') },
					PostGC:    func() { note('P') },
				}))
			})
			if tr.err != nil {
				// An allocation that found no room ends a run between
				// collections; one cut short would fail the order check.
				t.Logf("run ended: %v", tr.err)
			}
			c, s := clock.Counters, log.sum
			got := [...]uint64{s.BytesCopied, s.ObjectsCopied, s.RemsetEntries, s.CardsScanned,
				s.BootBytesScanned, s.MRObjectsMarked, s.MRBytesMarked, s.MRFramesEvacuated}
			want := [...]uint64{c.BytesCopied, c.ObjectsCopied, c.RemsetEntriesGC, c.CardsScanned,
				c.BootBytesScanned, c.MRObjectsMarked, c.MRBytesMarked, c.MRFramesEvacuated}
			if got != want {
				t.Errorf("GCEnd deltas sum to %v, the run's counters are %v\n(bytes copied, objects copied, remset entries, cards, boot bytes, MR objects, MR bytes, MR frames evacuated)", got, want)
			}
			if math.Float64bits(s.Duration) != math.Float64bits(clock.GCTime()) {
				t.Errorf("GCEnd durations sum to %v, Clock.GCTime is %v", s.Duration, clock.GCTime())
			}
			var wantOrder []byte
			for _, b := range log.begins {
				wantOrder = append(wantOrder, 'B')
				wantOrder = append(wantOrder, bytes.Repeat([]byte{'C'}, b.CondemnedIncrements)...)
				wantOrder = append(wantOrder, 'E')
				wantOrder = append(wantOrder, bytes.Repeat([]byte{'O'}, len(cfg.Belts))...)
				wantOrder = append(wantOrder, 'P', 'T')
			}
			if uint64(len(log.begins)) != c.Collections || !bytes.Equal(log.order, wantOrder) {
				t.Errorf("%d collections, hooks fired\n %s\nwant, from the %d GCBegin infos,\n %s", c.Collections, log.order, len(log.begins), wantOrder)
			}
		})
	}
}

// TestFullCollectionTraceZeroAlloc pins a steady-state full collection
// through the slab-resident kernel — roots, Cheney scan, copy, forwarding
// — and its bookkeeping (the condemned set, the target increment and its
// frame list, all reused) at zero Go allocations, for a small heap and for
// one forty times its size.
func TestFullCollectionTraceZeroAlloc(t *testing.T) {
	perCollection := func(live int) float64 {
		o := collectors.Options{HeapBytes: 16 << 20, FrameBytes: 1 << 20}
		h, node := benchHeap(t, collectors.BSS(o))
		defer h.Space().Release()
		roots := h.Roots()
		prev := roots.Get(roots.Add(mustAlloc(t, h, node)))
		for i := 0; i < live; i++ {
			n := mustAlloc(t, h, node)
			h.WriteRef(prev, i%2, n)
			prev = n
		}
		copied0 := h.Clock().Counters.ObjectsCopied
		n := testing.AllocsPerRun(10, func() {
			if err := h.Collect(true); err != nil {
				t.Fatal(err)
			}
		})
		if got := h.Clock().Counters.ObjectsCopied - copied0; got < uint64(11*live) {
			t.Errorf("collections copied %d objects; the %d-object list did not survive", got, live)
		}
		return n
	}
	small, large := perCollection(500), perCollection(20000)
	if large != small {
		t.Errorf("a full collection of 20000 objects allocates %v times, of 500 objects %v: the trace allocates", large, small)
	}
	if small != 0 {
		t.Errorf("a steady-state full collection allocates %v times, want 0", small)
	}
}
