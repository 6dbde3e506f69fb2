package core_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"beltway/internal/collectors"
	"beltway/internal/core"
	"beltway/internal/gc"
	"beltway/internal/heap"
	"beltway/internal/policy"
	"beltway/internal/stats"
	"beltway/internal/vm"
)

// refCollector is the reference heap as the mutator sees it: Alloc goes
// through the reference model (alloc_ref_test.go), everything else is the
// heap's own.
type refCollector struct{ *core.Heap }

func (r refCollector) Alloc(t *heap.TypeDesc, n int) (heap.Addr, error) {
	return r.Heap.RefAlloc(t, n)
}

// allocRow is one configuration of TestWindowAllocMatchesReference. mk
// builds it afresh for each of the two heaps, because tuners carry
// state.
type allocRow struct {
	name      string
	mk        func() core.Config
	pretenure bool // the stream allocates pretenured objects too
	knobs     bool // the stream retunes belt 0's sizing between allocations
	noWindow  bool // the window must never open
	used      func(allocStats) bool
}

// allocStats is what a lockstep run saw of the heap allocating through
// the window, for the rows to check that they exercised what they are for.
type allocStats struct {
	windowHits    int // allocations made with the window open that mapped and collected nothing
	windowOpens   int
	remsetGCs     int
	ttdIncrements int // allocations after which the allocation belt held two increments
	knobFlips     int
	counters      stats.Counters
}

func allocRows(t *testing.T) []allocRow {
	o := testOptions(256)
	parse := func(spec string) func() core.Config {
		return func() core.Config {
			cfg, err := collectors.Parse(spec, o)
			if err != nil {
				t.Fatal(err)
			}
			return cfg
		}
	}
	with := func(mk func() core.Config, name string, tweak func(*core.Config)) func() core.Config {
		return func() core.Config {
			cfg := mk()
			cfg.Name = name
			tweak(&cfg)
			return cfg
		}
	}
	xx100 := parse("25.25.100")
	return []allocRow{
		{name: "ss", mk: parse("ss")},
		{name: "appel", mk: parse("appel")},
		{name: "25.25.100", mk: xx100},
		{name: "cards:25.25.100", mk: parse("cards:25.25.100"),
			used: func(s allocStats) bool { return s.counters.CardsScanned > 0 }},
		{name: "25.25-mr", mk: parse("25.25-mr"),
			used: func(s allocStats) bool { return s.counters.MRObjectsMarked > 0 }},
		{name: "immix", mk: parse("immix"), noWindow: true,
			used: func(s allocStats) bool { return s.counters.MRObjectsMarked > 0 }},
		{name: "ttd", knobs: true, pretenure: true,
			mk: with(xx100, "ttd", func(c *core.Config) { c.TTDBytes = 16 * c.FrameBytes }),
			used: func(s allocStats) bool {
				return s.ttdIncrements > 0 && s.knobFlips > 0 && s.counters.PretenuredBytes > 0
			}},
		{name: "pretenure-shares-increment", pretenure: true,
			mk:   parse("ss"), // one belt: the pretenure belt is the allocation belt
			used: func(s allocStats) bool { return s.counters.PretenuredBytes > 0 }},
		{name: "remset-threshold",
			mk:   with(xx100, "remset-threshold", func(c *core.Config) { c.RemsetThreshold = 8 }),
			used: func(s allocStats) bool { return s.remsetGCs > 0 }},
		{name: "paging",
			mk:   with(xx100, "paging", func(c *core.Config) { c.PhysMemBytes = 4 * c.FrameBytes }),
			used: func(s allocStats) bool { return s.counters.PageFaultBytes > 0 }},
		{name: "slo-tuner",
			mk: func() core.Config {
				cfg := collectors.Fixed(25, o)
				pc, err := policy.Parse("slo:max=4000")
				if err != nil {
					t.Fatal(err)
				}
				cfg.Policy = policy.New(pc)
				return cfg
			},
			used: func(s allocStats) bool { return s.knobFlips > 0 }},
	}
}

// lockstep is two heaps of one configuration fed the same operations: win
// allocates through the window, ref through the reference model.
type lockstep struct {
	t        *testing.T
	win, ref *core.Heap
	mw, mr   *vm.Mutator
	stats    allocStats
	seenGCs  uint64
}

func newLockstep(t *testing.T, row allocRow) *lockstep {
	t.Helper()
	types := heap.NewRegistry()
	mk := func() *core.Heap {
		cfg := row.mk()
		// Thirds and tenths, so that the clock rounds at every charge and
		// one moved, merged or reordered shows in its bits (the default
		// cost model is nearly all dyadic, and dyadic sums are exact in
		// any order).
		cfg.Costs = stats.DefaultCosts()
		cfg.Costs.AllocByte, cfg.Costs.BarrierFast, cfg.Costs.BarrierSlow = 1.0/3, 2.1, 10.7
		cfg.Costs.FrameOp, cfg.Costs.PageByte, cfg.Costs.CopyByte = 500.1, 1.7, 0.3
		h, err := core.New(cfg, types)
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	p := &lockstep{t: t, win: mk(), ref: mk()}
	p.mw, p.mr = vm.New(p.win), vm.New(refCollector{p.ref})
	p.win.SetHooks(gc.Hooks{GCBegin: func(info gc.GCBeginInfo) {
		if info.Trigger == gc.TriggerRemset {
			p.stats.remsetGCs++
		}
	}})
	return p
}

func (p *lockstep) release() {
	p.win.Space().Release()
	p.ref.Space().Release()
}

// do applies one operation to both heaps and compares what it left
// behind. op returns the handle of the object it allocated, or NilHandle.
// It reports false when the run is over: the operation failed (on both
// heaps alike, or the test has failed).
func (p *lockstep) do(what string, op func(m *vm.Mutator) gc.Handle) (gc.Handle, bool) {
	p.t.Helper()
	wasOpen := p.win.WindowOpen()
	before := p.win.Clock().Counters
	var hw, hr gc.Handle
	errW := p.mw.Run(func() { hw = op(p.mw) })
	errR := p.mr.Run(func() { hr = op(p.mr) })
	if fmt.Sprint(errW) != fmt.Sprint(errR) {
		p.t.Fatalf("%s: the window heap ended %v, the reference %v", what, errW, errR)
	}
	if hw != hr {
		p.t.Fatalf("%s: handle %d, reference %d", what, hw, hr)
	}
	cw, cr := p.win.Clock(), p.ref.Clock()
	if cw.Counters != cr.Counters {
		p.t.Fatalf("%s: counters\n window    %+v\n reference %+v", what, cw.Counters, cr.Counters)
	}
	if math.Float64bits(cw.Now()) != math.Float64bits(cr.Now()) {
		p.t.Fatalf("%s: clock %v, reference %v", what, cw.Now(), cr.Now())
	}
	if p.win.Collections() != p.ref.Collections() {
		p.t.Fatalf("%s: %d collections, reference %d", what, p.win.Collections(), p.ref.Collections())
	}
	if p.ref.WindowOpen() {
		p.t.Fatalf("%s: the window opened on the reference heap", what)
	}
	if errW != nil {
		return gc.NilHandle, false
	}
	if hw != gc.NilHandle {
		aw, ar := p.win.Roots().Get(hw), p.ref.Roots().Get(hr)
		if aw != ar {
			p.t.Fatalf("%s: allocated at %v, reference at %v", what, aw, ar)
		}
		if tw, tr := p.win.AllocTrailAt(aw), p.ref.AllocTrailAt(ar); tw != tr {
			p.t.Fatalf("%s at %v: left %+v, reference %+v", what, aw, tw, tr)
		}
		after := cw.Counters
		if wasOpen && after.FramesMapped == before.FramesMapped && after.Collections == before.Collections {
			p.stats.windowHits++
		}
		if b := p.win.Belts()[p.win.AllocBeltIndex()]; b.Len() == 2 {
			p.stats.ttdIncrements++
		}
	}
	if !wasOpen && p.win.WindowOpen() {
		p.stats.windowOpens++
	}
	if n := p.win.Collections(); n != p.seenGCs {
		p.seenGCs = n
		// Every word of every mapped frame, and which frames are mapped.
		if heapImage(p.win.Space()) != heapImage(p.ref.Space()) {
			p.t.Fatalf("%s: heap images differ after collection %d", what, n)
		}
	}
	return hw, true
}

// runAllocScript feeds one seeded stream of allocations, stores, releases
// and forced collections to a lockstep pair and returns what the window
// heap saw.
func runAllocScript(t *testing.T, row allocRow, seed int64) allocStats {
	t.Helper()
	p := newLockstep(t, row)
	defer p.release()
	types := p.win.Space().Types
	scalars := []*heap.TypeDesc{
		types.DefineScalar("pair", 2, 2),
		types.DefineScalar("wide", 5, 1),
		types.DefineScalar("leaf", 0, 6),
	}
	refs := types.DefineRefArray("refs")
	words := types.DefineWordArray("words")
	boot := types.DefineScalar("boot", 3, 0)
	cfg := p.win.Config()
	frameWords := cfg.FrameBytes / heap.WordBytes
	rng := rand.New(rand.NewSource(seed))

	var live, boots []gc.Handle
	alloc := func(what string, op func(m *vm.Mutator) gc.Handle) bool {
		hd, ok := p.do(what, op)
		if ok {
			live = append(live, hd)
		}
		return ok
	}
	store := func(what string, op func(m *vm.Mutator)) bool {
		_, ok := p.do(what, func(m *vm.Mutator) gc.Handle { op(m); return gc.NilHandle })
		return ok
	}
	pick := func() gc.Handle { return live[rng.Intn(len(live))] }
	numRefs := func(hd gc.Handle) int { return p.mw.TypeOf(hd).NumRefs(p.mw.Length(hd)) }
	drop := func() bool {
		i := rng.Intn(len(live))
		hd := live[i]
		live[i] = live[len(live)-1]
		live = live[:len(live)-1]
		return store("release", func(m *vm.Mutator) { m.Release(hd) })
	}

	for i := 0; i < 6; i++ {
		hd, ok := p.do("immortal", func(m *vm.Mutator) gc.Handle { return m.AllocImmortal(boot, 0) })
		if !ok {
			t.Fatal("boot image did not fit")
		}
		boots = append(boots, hd)
	}
	ok := alloc("first", func(m *vm.Mutator) gc.Handle { return m.Alloc(scalars[0], 0) })
	for op := 0; ok && op < 9000; op++ {
		what := fmt.Sprintf("seed %d op %d", seed, op)
		switch r := rng.Intn(100); {
		case r < 45:
			td := scalars[rng.Intn(len(scalars))]
			ok = alloc(what+" alloc", func(m *vm.Mutator) gc.Handle { return m.Alloc(td, 0) })
		case r < 52:
			n := 1 + rng.Intn(40)
			ok = alloc(what+" alloc refs", func(m *vm.Mutator) gc.Handle { return m.Alloc(refs, n) })
		case r < 55:
			n := 1 + rng.Intn(30)
			ok = alloc(what+" alloc words", func(m *vm.Mutator) gc.Handle {
				hd := m.Alloc(words, n)
				m.SetData(hd, 0, uint32(op))
				return hd
			})
		case r < 60 && row.pretenure:
			// A third of a frame at a time, so that the pretenure belt
			// maps frames — and moves the budget the time-to-die trigger
			// reads — about as often as the nursery does.
			n := frameWords/4 + rng.Intn(frameWords/8)
			ok = alloc(what+" alloc pretenured", func(m *vm.Mutator) gc.Handle { return m.AllocPretenured(words, n) })
		case r < 61 && row.knobs:
			// Retune belt 0 between two allocations as the slo controller
			// does at the end of a collection: to Appel's shape (all of
			// usable memory, nothing reserved), or back to the preset's.
			b0 := cfg.Belts[0]
			if rng.Intn(2) == 0 {
				b0.IncrementFrac, b0.ReserveFrac = 1, 0
			}
			ups := []core.KnobUpdate{
				{Knob: core.KnobIncrementFrac, Belt: 0, Value: b0.IncrementFrac},
				{Knob: core.KnobReserveFrac, Belt: 0, Value: b0.ReserveFrac},
			}
			p.win.ApplyKnobs(ups)
			p.ref.ApplyKnobs(ups)
			p.stats.knobFlips++
		case r < 85:
			src, val := pick(), pick()
			if n := numRefs(src); n > 0 {
				slot := rng.Intn(n)
				ok = store(what+" setref", func(m *vm.Mutator) { m.SetRef(src, slot, val) })
			}
		case r < 88:
			src := pick()
			if n := numRefs(src); n > 0 {
				slot := rng.Intn(n)
				ok = store(what+" setrefnil", func(m *vm.Mutator) { m.SetRefNil(src, slot) })
			}
		case r < 92:
			src, slot, val := boots[rng.Intn(len(boots))], rng.Intn(3), pick()
			ok = store(what+" boot setref", func(m *vm.Mutator) { m.SetRef(src, slot, val) })
		case r < 93:
			full := rng.Intn(4) == 0
			if rng.Intn(8) == 0 {
				// A collection with nothing to copy: it maps no frame and
				// opens no increment, so nothing but collect itself stands
				// between the window and the increment it unmaps.
				for ok && len(live) > 0 {
					ok = drop()
				}
				for _, b := range boots {
					for slot := 0; ok && slot < 3; slot++ {
						ok = store(what+" clear boot", func(m *vm.Mutator) { m.SetRefNil(b, slot) })
					}
				}
				full = true
			}
			ok = ok && store(what+" collect", func(m *vm.Mutator) { m.Collect(full) })
			if ok && len(live) == 0 {
				ok = alloc(what+" alloc after emptying", func(m *vm.Mutator) gc.Handle { return m.Alloc(scalars[0], 0) })
			}
		default:
			if len(live) > 8 {
				ok = drop()
			}
		}
		for ok && len(live) > 300 {
			ok = drop()
		}
	}
	if ok {
		store("final collect", func(m *vm.Mutator) { m.Collect(true) })
	}
	if err := p.win.CheckInvariants(); err != nil {
		t.Errorf("seed %d: %v", seed, err)
	}
	p.stats.counters = p.win.Clock().Counters
	if ctrl, isCtrl := cfg.Policy.(*policy.Controller); isCtrl {
		p.stats.knobFlips += len(ctrl.Decisions())
	}
	return p.stats
}

// TestWindowAllocMatchesReference is the reference-model test for the
// allocation window: a heap allocating through it and a second heap
// allocating through Alloc and tryAlloc as they were before it are fed
// the same seeded stream, and must agree after every allocation on the
// address returned, the serial, the clock to the bit, every counter, the
// frame's fill mark and the increment's cursor and occupancy, and after
// every collection on every word of every mapped frame. The rows are the
// configurations on which the decision tree the window stands in for
// takes a different branch, or on which something besides Alloc moves
// what it reads.
//
// Checked by mutation when it was written: with closeWindow taken out of
// addFrame, out of collect, or out of applyKnobUpdates, it fails.
func TestWindowAllocMatchesReference(t *testing.T) {
	for _, row := range allocRows(t) {
		row := row
		t.Run(row.name, func(t *testing.T) {
			for seed := int64(1); seed <= 3; seed++ {
				s := runAllocScript(t, row, seed)
				if s.counters.Collections < 10 {
					t.Errorf("seed %d: only %d collections; the closers are unexercised", seed, s.counters.Collections)
				}
				switch {
				case row.noWindow && s.windowOpens > 0:
					t.Errorf("seed %d: the window opened %d times on a mark-region allocation belt", seed, s.windowOpens)
				case !row.noWindow && (s.windowHits < 1000 || s.windowOpens < 50):
					t.Errorf("seed %d: %d window hits over %d openings; the window is unexercised", seed, s.windowHits, s.windowOpens)
				}
				if row.used != nil && !row.used(s) {
					t.Errorf("seed %d: run did not exercise its row: %+v", seed, s)
				}
			}
		})
	}
}

// The collector's layer of the fault-parity tables (heap: the second table
// of TestSlabPrimitivesFaultLikeWordPath; gc: TestInvalidHandlePanics; vm:
// TestNilDereferencePanics). Alloc, WriteRef and ReadRef raise nothing of
// their own on the mutator's path: what they are handed wrong faults in
// the heap accessor under them, under the accessor's message, and leaves
// the books as the reference model leaves them — whether the allocation
// came through the window or through the tree.
func TestMutatorPathFaultsThroughCore(t *testing.T) {
	panicOf := func(fn func()) (msg string) {
		defer func() {
			if r := recover(); r != nil {
				msg = fmt.Sprint(r)
			}
		}()
		fn()
		return ""
	}
	// site is where a case's operation runs: a heap, its allocator (Alloc
	// or the reference model's), two types and the one object allocated.
	type site struct {
		h         *core.Heap
		alloc     func(*heap.TypeDesc, int) (heap.Addr, error)
		node, arr *heap.TypeDesc
		obj       heap.Addr
	}
	cases := []struct {
		name string
		do   func(s site)
		want string
	}{
		{"Alloc of a scalar with a length", func(s site) { s.alloc(s.node, 1) },
			"heap: scalar n formatted with length 1"},
		{"Alloc of a negative length", func(s site) { s.alloc(s.arr, -1) },
			"heap: negative array length"},
		{"WriteRef past the last slot", func(s site) { s.h.WriteRef(s.obj, 2, s.obj) },
			"heap: ref slot 2 out of range [0,2) at 0x00001000 (n)"},
		{"WriteRef of a negative slot", func(s site) { s.h.WriteRef(s.obj, -1, heap.Nil) },
			"heap: ref slot -1 out of range [0,2) at 0x00001000 (n)"},
		{"WriteRef through nil", func(s site) { s.h.WriteRef(heap.Nil, 0, s.obj) },
			"heap: fault at 0x00000000 (frame 0 unmapped)"},
		{"ReadRef past the last slot", func(s site) { s.h.ReadRef(s.obj, 2) },
			"heap: ref slot 2 out of range [0,2) at 0x00001000 (n)"},
		{"ReadRef of a misaligned address", func(s site) { s.h.ReadRef(s.obj+2, 0) },
			"heap: misaligned read at 0x00001002"},
	}
	for _, tc := range cases {
		// Three heaps a case: the allocation that faults is the heap's
		// second, through the open window; its first, through the tree;
		// and the reference model's second.
		type outcome struct {
			panicked string
			counters stats.Counters
			now      uint64
			trail    core.AllocTrail
		}
		run := func(useRef, warm bool) outcome {
			h, node := benchHeap(t, collectors.XX100(25, testOptions(256)))
			defer h.Space().Release()
			arr := h.Space().Types.DefineRefArray("arr")
			alloc := h.Alloc
			if useRef {
				alloc = h.RefAlloc
			}
			obj := heap.Addr(0x1000)
			if warm {
				a, err := alloc(node, 0)
				if err != nil || a != obj {
					t.Fatalf("%s: first allocation at %v, %v", tc.name, a, err)
				}
				if h.WindowOpen() == useRef {
					t.Fatalf("%s: window open %v after the first allocation", tc.name, h.WindowOpen())
				}
			}
			o := outcome{panicked: panicOf(func() { tc.do(site{h, alloc, node, arr, obj}) })}
			o.counters, o.now = h.Clock().Counters, math.Float64bits(h.Clock().Now())
			if warm {
				o.trail = h.AllocTrailAt(obj)
			}
			return o
		}
		window, ref := run(false, true), run(true, true)
		if window.panicked != tc.want {
			t.Errorf("%s: panics %q, want %q", tc.name, window.panicked, tc.want)
		}
		if window != ref {
			t.Errorf("%s through the window left\n %+v, the reference model\n %+v", tc.name, window, ref)
		}
		if tree, refTree := run(false, false), run(true, false); tree != refTree {
			t.Errorf("%s through the tree left\n %+v, the reference model\n %+v", tc.name, tree, refTree)
		}
	}
}

// TestLOSDisabledRejectsHugeObjects: there is no large object space, as
// in the paper's GCTk, so every object must fit a frame. Each allocator
// refuses a bigger one, and accepts one that fills a frame exactly.
func TestLOSDisabledRejectsHugeObjects(t *testing.T) {
	types := heap.NewRegistry()
	h, err := core.New(collectors.XX100(25, testOptions(256)), types)
	if err != nil {
		t.Fatal(err)
	}
	big := types.DefineWordArray("big")
	fits := h.Config().FrameBytes/heap.WordBytes - heap.HeaderBytes/heap.WordBytes
	for name, alloc := range map[string]func(int) (heap.Addr, error){
		"Alloc":           func(n int) (heap.Addr, error) { return h.Alloc(big, n) },
		"AllocPretenured": func(n int) (heap.Addr, error) { return h.AllocPretenured(big, n) },
		"AllocImmortal":   func(n int) (heap.Addr, error) { return h.AllocImmortal(big, n) },
	} {
		if _, err := alloc(fits + 1); err == nil {
			t.Errorf("%s accepted an object one word bigger than a frame", name)
		}
		if _, err := alloc(fits); err != nil {
			t.Errorf("%s refused an object that fills a frame: %v", name, err)
		}
	}
}
