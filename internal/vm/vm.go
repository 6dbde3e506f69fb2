// Package vm is the mutator facade: the typed, handle-based API that the
// workloads use to build and mutate object graphs on any gc.Collector.
// It plays the role of the application + runtime interface in Jikes RVM:
// every pointer store goes through the collector's write barrier, every
// potentially-collecting operation deals in stable handles rather than
// raw (movable) addresses, and an optional shadow-graph validator checks
// collector correctness after every collection.
package vm

import (
	"beltway/internal/gc"
	"beltway/internal/heap"
	"beltway/internal/stats"
)

// oomPanic wraps an out-of-memory error raised inside workload code.
// Workloads are written in direct style (no error plumbing at every
// allocation site, mirroring how Java benchmarks simply throw); Run
// recovers the panic and returns the error.
type oomPanic struct{ err error }

// Recorder captures the mutator event stream (see internal/trace). All
// methods are called after the corresponding operation succeeds.
//
// Every Mutator operation that charges the clock, allocates, moves a
// handle or stores into the heap has a method here, so that a replay of
// the recorded stream costs what the recorded run cost: nothing charged
// may go unrecorded. Length, TypeOf, Serial and SameObject have none and
// need none — they read a header or compare two root slots, charge
// nothing, create no handle and leave the heap as it was, so a replay
// that skips them arrives at the same clock, counters and heap.
type Recorder interface {
	Alloc(td *heap.TypeDesc, length int, h gc.Handle, global, immortal bool)
	SetRef(obj gc.Handle, slot int, val gc.Handle)
	GetRef(obj gc.Handle, slot int, out gc.Handle)
	RefIsNil(obj gc.Handle, slot int)
	Release(h gc.Handle)
	Push()
	Pop()
	SetData(obj gc.Handle, i int, v uint32)
	GetData(obj gc.Handle, i int)
	Work(n int)
	Collect(full bool)
	Keep(h, out gc.Handle)
	AllocPretenured(td *heap.TypeDesc, length int, h gc.Handle, global bool)
}

// Mutator drives a collector. All object references held across
// allocation points must be gc.Handles; raw addresses are never exposed.
//
// It keeps the collector's root set, address space and clock, which are
// fixed for the collector's life: an operation is then this method, the
// handle lookups, at most one dynamic call into the collector (Alloc,
// WriteRef, ReadRef — the calls a wrapping gc.Collector may observe) and
// one heap accessor, with nothing fetched through the interface twice.
type Mutator struct {
	C     gc.Collector
	V     *Validator // nil unless validation is enabled
	R     Recorder   // nil unless trace recording is attached
	roots *gc.RootSet
	space *heap.Space
	clock *stats.Clock
}

// SetRecorder attaches (or detaches, with nil) a trace recorder.
func (m *Mutator) SetRecorder(r Recorder) { m.R = r }

// New wraps a collector in a mutator facade.
func New(c gc.Collector) *Mutator {
	m := new(Mutator)
	m.Reset(c)
	return m
}

// Reset makes m the facade New(c) returns: no validator, no recorder. A
// mutator kept from one run to the next (shard's lanes) is reset onto
// the next run's collector.
func (m *Mutator) Reset(c gc.Collector) {
	*m = Mutator{C: c, roots: c.Roots(), space: c.Space(), clock: c.Clock()}
}

// EnableValidation attaches the shadow-graph oracle. It makes runs much
// slower and is intended for tests.
func (m *Mutator) EnableValidation() *Validator {
	m.V = newValidator(m)
	return m.V
}

// Run executes a workload body, converting allocation-failure panics into
// returned errors. All workload entry points go through it.
func (m *Mutator) Run(body func()) (err error) {
	defer func() {
		if r := recover(); r != nil {
			if p, ok := r.(oomPanic); ok {
				err = p.err
				return
			}
			panic(r)
		}
	}()
	body()
	return nil
}

// fail raises an allocation failure to the nearest Run.
func fail(err error) {
	panic(oomPanic{err})
}

// Push opens a root scope; handles allocated until the matching Pop are
// released automatically. Scopes model mutator stack frames — keep them
// tight, since every live handle slot is scanned at every collection.
func (m *Mutator) Push() {
	m.roots.PushScope()
	if m.R != nil {
		m.R.Push()
	}
}

// Pop closes the innermost root scope.
func (m *Mutator) Pop() {
	m.roots.PopScope()
	if m.R != nil {
		m.R.Pop()
	}
}

// Release drops a handle before its scope closes.
func (m *Mutator) Release(h gc.Handle) {
	m.roots.Remove(h)
	if m.R != nil {
		m.R.Release(h)
	}
}

// Alloc allocates an object of type t (length 0 for scalars) and returns
// a rooted handle in the current scope.
func (m *Mutator) Alloc(t *heap.TypeDesc, length int) gc.Handle {
	a, err := m.C.Alloc(t, length)
	if err != nil {
		fail(err)
	}
	h := m.roots.Add(a)
	if m.V != nil {
		m.V.noteAlloc(a, t, length)
	}
	if m.R != nil {
		m.R.Alloc(t, length, h, false, false)
	}
	return h
}

// AllocGlobal allocates like Alloc but roots the object outside the
// scope discipline: the handle survives Pop and lives until Release.
func (m *Mutator) AllocGlobal(t *heap.TypeDesc, length int) gc.Handle {
	a, err := m.C.Alloc(t, length)
	if err != nil {
		fail(err)
	}
	h := m.roots.AddGlobal(a)
	if m.V != nil {
		m.V.noteAlloc(a, t, length)
	}
	if m.R != nil {
		m.R.Alloc(t, length, h, true, false)
	}
	return h
}

// Keep re-roots the object referenced by h outside the scope discipline
// and returns the durable handle; use it to return a result from a
// scoped computation.
func (m *Mutator) Keep(h gc.Handle) gc.Handle {
	out := m.roots.AddGlobal(m.roots.Get(h))
	if m.R != nil {
		m.R.Keep(h, out)
	}
	return out
}

// AllocPretenured allocates directly on an older belt (allocation-site
// segregation of long-lived objects) and returns a handle in the
// current scope.
func (m *Mutator) AllocPretenured(t *heap.TypeDesc, length int) gc.Handle {
	a, err := m.C.AllocPretenured(t, length)
	if err != nil {
		fail(err)
	}
	h := m.roots.Add(a)
	if m.V != nil {
		m.V.noteAlloc(a, t, length)
	}
	if m.R != nil {
		m.R.AllocPretenured(t, length, h, false)
	}
	return h
}

// AllocPretenuredGlobal is AllocPretenured with a scope-independent root.
func (m *Mutator) AllocPretenuredGlobal(t *heap.TypeDesc, length int) gc.Handle {
	a, err := m.C.AllocPretenured(t, length)
	if err != nil {
		fail(err)
	}
	h := m.roots.AddGlobal(a)
	if m.V != nil {
		m.V.noteAlloc(a, t, length)
	}
	if m.R != nil {
		m.R.AllocPretenured(t, length, h, true)
	}
	return h
}

// AllocImmortal allocates in the boot image and returns a rooted handle.
func (m *Mutator) AllocImmortal(t *heap.TypeDesc, length int) gc.Handle {
	a, err := m.C.AllocImmortal(t, length)
	if err != nil {
		fail(err)
	}
	h := m.roots.Add(a)
	if m.V != nil {
		m.V.noteAlloc(a, t, length)
	}
	if m.R != nil {
		m.R.Alloc(t, length, h, false, true)
	}
	return h
}

// SetRef stores the object referenced by val into reference slot i of the
// object referenced by obj, through the collector's write barrier.
func (m *Mutator) SetRef(obj gc.Handle, i int, val gc.Handle) {
	oa := m.addrOf(obj, "SetRef receiver")
	va := m.roots.Get(val)
	m.C.WriteRef(oa, i, va)
	if m.V != nil {
		m.V.noteSetRef(oa, i, va)
	}
	if m.R != nil {
		m.R.SetRef(obj, i, val)
	}
}

// SetRefNil clears reference slot i of obj.
func (m *Mutator) SetRefNil(obj gc.Handle, i int) {
	oa := m.addrOf(obj, "SetRefNil receiver")
	m.C.WriteRef(oa, i, heap.Nil)
	if m.V != nil {
		m.V.noteSetRef(oa, i, heap.Nil)
	}
	if m.R != nil {
		m.R.SetRef(obj, i, gc.NilHandle)
	}
}

// GetRef loads reference slot i of obj into a fresh handle in the current
// scope. The handle is NilHandle when the slot is nil.
func (m *Mutator) GetRef(obj gc.Handle, i int) gc.Handle {
	oa := m.addrOf(obj, "GetRef receiver")
	a := m.C.ReadRef(oa, i)
	var out gc.Handle
	if a != heap.Nil {
		out = m.roots.Add(a)
	}
	if m.R != nil {
		m.R.GetRef(obj, i, out)
	}
	return out
}

// RefIsNil reports whether reference slot i of obj is nil, without
// creating a handle. It is a reference read all the same, charged as one.
func (m *Mutator) RefIsNil(obj gc.Handle, i int) bool {
	isNil := m.C.ReadRef(m.addrOf(obj, "RefIsNil receiver"), i) == heap.Nil
	if m.R != nil {
		m.R.RefIsNil(obj, i)
	}
	return isNil
}

// SameObject reports whether two handles reference the same object.
func (m *Mutator) SameObject(a, b gc.Handle) bool {
	return m.roots.Get(a) == m.roots.Get(b)
}

// SetData writes data word i of obj.
func (m *Mutator) SetData(obj gc.Handle, i int, v uint32) {
	oa := m.addrOf(obj, "SetData receiver")
	m.chargeField()
	m.space.SetData(oa, i, v)
	if m.V != nil {
		m.V.noteSetData(oa, i, v)
	}
	if m.R != nil {
		m.R.SetData(obj, i, v)
	}
}

// GetData reads data word i of obj.
func (m *Mutator) GetData(obj gc.Handle, i int) uint32 {
	m.chargeField()
	v := m.space.GetData(m.addrOf(obj, "GetData receiver"), i)
	if m.R != nil {
		m.R.GetData(obj, i)
	}
	return v
}

// Length returns the array length of obj.
func (m *Mutator) Length(obj gc.Handle) int {
	return m.space.Length(m.addrOf(obj, "Length receiver"))
}

// TypeOf returns the type descriptor of obj.
func (m *Mutator) TypeOf(obj gc.Handle) *heap.TypeDesc {
	return m.space.TypeOf(m.addrOf(obj, "TypeOf receiver"))
}

// Serial returns the allocation serial of obj (stable across moves).
func (m *Mutator) Serial(obj gc.Handle) uint32 {
	return m.space.Serial(m.addrOf(obj, "Serial receiver"))
}

// Work charges n abstract units of pure application work to the clock.
func (m *Mutator) Work(n int) {
	m.clock.Advance(m.clock.Costs.MutatorOp * float64(n))
	if m.R != nil {
		m.R.Work(n)
	}
}

// Collect forces a collection (full condemns everything).
func (m *Mutator) Collect(full bool) {
	if err := m.C.Collect(full); err != nil {
		fail(err)
	}
	if m.R != nil {
		m.R.Collect(full)
	}
}

func (m *Mutator) chargeField() {
	m.clock.Advance(m.clock.Costs.FieldAccess)
}

// addrOf is the receiver lookup of every accessor. The panic is spelled
// as a concatenation, which the inliner does not count as a call, so
// that addrOf inlines and the lookup costs the accessor one call, Get.
func (m *Mutator) addrOf(h gc.Handle, what string) heap.Addr {
	a := m.roots.Get(h)
	if a == heap.Nil {
		panic("vm: nil dereference (" + what + ")")
	}
	return a
}
