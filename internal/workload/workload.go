// Package workload provides the six benchmark programs of the paper's
// evaluation — 202_jess, 205_raytrace, 209_db, 213_javac, 228_jack and
// pseudojbb — as deterministic synthetic analogs driving the vm.Mutator
// API.
//
// The Java originals are unavailable in this reproduction (and their
// semantics are irrelevant to a collector); what a copying collector
// responds to is object demographics: allocation volume, size
// distribution, lifetime distribution, pointer-mutation rate and
// direction, and the presence of cyclic structures. Each analog
// reproduces the qualitative demographics the paper and Dieckman &
// Hölzle's SPECjvm98 study describe:
//
//	jess      — expert system: very high allocation rate of short-lived
//	            tokens over a stable rule network; tiny live set
//	            relative to allocation (paper: 12MB min heap, 301MB
//	            allocated).
//	raytrace  — long-lived scene graph built up front, then per-ray
//	            temporaries that die almost immediately.
//	db        — long-lived record set with heavy pointer shuffling
//	            (high write-barrier traffic, little garbage); GC is not
//	            the dominant cost, locality is.
//	javac     — compiler: per-compilation-unit ASTs and symbol tables
//	            with large CYCLIC structures whose edges span
//	            increments; exercises completeness (§4.2.4: Beltway
//	            25.25 "never reclaims a large cyclic garbage structure"
//	            of javac).
//	jack      — parser generator run repeatedly: phase-structured medium
//	            lifetimes with mass death at phase boundaries.
//	pseudojbb — 3-tier transaction system over warehouses: large
//	            long-lived live set, order lifetimes spanning many
//	            transactions, fixed transaction count (the paper's
//	            modification of SPEC JBB2000).
//
// All benchmarks are deterministic (seeded PRNG) and scale-parameterized:
// Scale=1 targets roughly 1/16th of the paper's absolute sizes so a full
// heap-size sweep runs in seconds, with the same min-heap:allocation
// ratios as paper Table 1.
package workload

import (
	"fmt"
	"math/rand"

	"beltway/internal/gc"
	"beltway/internal/heap"
	"beltway/internal/vm"
)

// Ctx is the environment a benchmark body runs in.
type Ctx struct {
	M     *vm.Mutator
	Types *heap.Registry
	Rng   *rand.Rand
	Scale float64
	// Pretenure, when set, routes allocation sites the benchmark knows
	// to be long-lived (scene graphs, symbol tables, warehouses) through
	// AllocPretenured — §5's allocation-site segregation. Off by
	// default so baseline results match the paper's (which did not
	// explore segregation).
	Pretenure bool

	// arena is the run's Go-side program state: the handle slices of its
	// tables, windows and buffers are carved from it (handles). It is the
	// context's own: Release rewinds it for the next run on the context.
	arena arena
}

// arena is an array of handles carved up by one run at a time.
type arena struct {
	handles []gc.Handle
	off     int // handles[:off] are carved
	carved  int // handles carved by this run, in this array and earlier ones
}

// handles returns n nil handles carved from the run's arena. Their
// capacity is n, so an append past it copies instead of running into the
// next carve: a buffer that grows is carved at its largest.
func (c *Ctx) handles(n int) []gc.Handle {
	a := &c.arena
	if a.off+n > len(a.handles) {
		// Too small for this run: carve the rest of it from an array that
		// holds everything the run carved so far and this, which the next
		// run starts on. What was carved before stays where it is.
		a.handles = make([]gc.Handle, max(2*len(a.handles), a.carved+n))
		a.off = 0
	}
	s := a.handles[a.off : a.off+n : a.off+n]
	clear(s)
	a.off += n
	a.carved += n
	return s
}

// Release ends the run on the context: every table, window and buffer
// the body carved is invalid afterwards, and the next run on c carves
// from the same array, grown to what the largest run on c carved, so it
// makes no Go object for its program state.
func (c *Ctx) Release() { c.arena.off, c.arena.carved = 0, 0 }

// AllocLongLived allocates at a site the benchmark knows produces
// long-lived data: pretenured when the run enables it, ordinary nursery
// allocation otherwise. The handle is scope-independent.
func (c *Ctx) AllocLongLived(t *heap.TypeDesc, length int) gc.Handle {
	if c.Pretenure {
		return c.M.AllocPretenuredGlobal(t, length)
	}
	return c.M.AllocGlobal(t, length)
}

// N scales an iteration/size count, never below 1.
func (c *Ctx) N(n int) int {
	v := int(float64(n)*c.Scale + 0.5)
	if v < 1 {
		return 1
	}
	return v
}

// Benchmark is one runnable workload.
type Benchmark struct {
	Name string
	// Paper-reported characteristics (Table 1), for reference output.
	PaperMinHeapMB int
	PaperAllocMB   int
	// Body runs the workload to completion.
	Body func(*Ctx)
}

// Params selects a workload instantiation.
type Params struct {
	Scale     float64 // 1.0 = default size (~1/16 of the paper's)
	Seed      int64   // PRNG seed; runs are deterministic per seed
	Pretenure bool    // route known-long-lived allocation sites to older belts
}

// DefaultParams is the standard configuration used by the harness.
func DefaultParams() Params { return Params{Scale: 1.0, Seed: 20020617} } // PLDI'02 date

// All returns the benchmark suite in the paper's order.
func All() []*Benchmark {
	return []*Benchmark{Jess(), Raytrace(), DB(), Javac(), Jack(), PseudoJBB()}
}

// Get returns the named benchmark or nil.
func Get(name string) *Benchmark {
	for _, b := range All() {
		if b.Name == name {
			return b
		}
	}
	return nil
}

// Names returns the benchmark names, sorted as in All.
func Names() []string {
	var out []string
	for _, b := range All() {
		out = append(out, b.Name)
	}
	return out
}

// Run executes the benchmark on the given collector.
func (b *Benchmark) Run(c gc.Collector, p Params) error {
	if p.Scale <= 0 {
		return fmt.Errorf("workload: non-positive scale %v", p.Scale)
	}
	m := vm.New(c)
	ctx := &Ctx{M: m, Types: c.Space().Types, Rng: rand.New(rand.NewSource(p.Seed)),
		Scale: p.Scale, Pretenure: p.Pretenure}
	return m.Run(func() { b.Body(ctx) })
}

// bootImage allocates a benchmark's immortal "boot image": type tables
// and string constants that a real VM carries. Boundary-barrier
// collectors rescan this at every collection, which is part of the
// Appel-vs-Beltway cost difference the paper discusses in §4.2.1.
func bootImage(c *Ctx, kb int) {
	tib := c.Types.DefineScalar("boot.tib", 2, 6)
	str := c.Types.DefineWordArray("boot.str")
	// A TIB comes every 320 bytes of the image or so, so the largest
	// image (64 KiB) has 205: the TIBs' handles fit in a buffer on the
	// stack.
	tables := make([]gc.Handle, 0, 256)
	bytes := 0
	i := 0
	for bytes < kb*1024 {
		var h gc.Handle
		if i%4 == 0 {
			h = c.M.AllocImmortal(tib, 0)
			bytes += tib.Size(0)
			tables = append(tables, h)
		} else {
			n := 8 + (i*7)%24
			h = c.M.AllocImmortal(str, n)
			bytes += str.Size(n)
		}
		i++
	}
	// Link TIBs into a chain, as class structures reference each other.
	for j := 1; j < len(tables); j++ {
		c.M.SetRef(tables[j], 0, tables[j-1])
	}
}

// table is a chunked reference array: workloads use it where the Java
// original would use one large array, since simulated objects must fit
// in a frame (GCTk similarly lacked a large object space; §4.1).
type table struct {
	buckets []gc.Handle // global roots
}

// bucketSize is a table's slots per bucket. A constant, so that finding
// a slot's bucket is a shift and a mask.
const bucketSize = 256

// newTable allocates a chunked reference table of n slots using the
// given ref-array type.
func newTable(c *Ctx, t *heap.TypeDesc, n int) table {
	tb := table{buckets: c.handles((n + bucketSize - 1) / bucketSize)}
	for i := range tb.buckets {
		tb.buckets[i] = c.M.AllocGlobal(t, min(bucketSize, n-i*bucketSize))
	}
	return tb
}

// Get loads slot i into a handle in the current scope.
func (tb *table) Get(m *vm.Mutator, i int) gc.Handle {
	return m.GetRef(tb.buckets[i/bucketSize], i%bucketSize)
}

// Set stores the object referenced by h into slot i.
func (tb *table) Set(m *vm.Mutator, i int, h gc.Handle) {
	m.SetRef(tb.buckets[i/bucketSize], i%bucketSize, h)
}

// SetNil clears slot i.
func (tb *table) SetNil(m *vm.Mutator, i int) {
	m.SetRefNil(tb.buckets[i/bucketSize], i%bucketSize)
}

// IsNil reports whether slot i is nil.
func (tb *table) IsNil(m *vm.Mutator, i int) bool {
	return m.RefIsNil(tb.buckets[i/bucketSize], i%bucketSize)
}

// window holds the handles most recently pushed to it, up to a fixed
// count, releasing the oldest as each new one arrives: a FIFO on one
// array, where sliding a slice (s = s[1:]) would reallocate it whenever
// its capacity ran out.
type window struct {
	ring   []gc.Handle
	oldest int // position of the oldest handle once the ring is full
}

// newWindow returns an empty window of n handles (n >= 1).
func newWindow(c *Ctx, n int) window { return window{ring: c.handles(n)[:0]} }

// push adds h, releasing the oldest handle first if the window is full.
func (w *window) push(m *vm.Mutator, h gc.Handle) {
	if len(w.ring) < cap(w.ring) {
		w.ring = append(w.ring, h)
		return
	}
	m.Release(w.ring[w.oldest])
	w.ring[w.oldest] = h
	w.oldest = (w.oldest + 1) % len(w.ring)
}

// release drops the table's bucket roots.
func (tb *table) release(m *vm.Mutator) {
	for _, b := range tb.buckets {
		m.Release(b)
	}
	tb.buckets = nil
}
