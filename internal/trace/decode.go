package trace

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"

	"beltway/internal/gc"
	"beltway/internal/heap"
)

// arity is each op's argument count; a code past it, or 0, is unknown.
var arity = [...]int{
	opDefineType: 4, opAlloc: 3, opAllocGlobal: 3, opAllocImmortal: 3,
	opSetRef: 3, opGetRef: 3, opRelease: 1, opPush: 0, opPop: 0,
	opSetData: 3, opGetData: 2, opWork: 1, opCollect: 1, opKeep: 2,
	opAllocPretenured: 4, opRefIsNil: 2,
}

// live is the address the decoder's root table holds for an object: any
// non-nil address does, since nothing reads it.
const live = heap.Addr(4)

// maxWords bounds a type's slots and words together, and an array's
// length: no object is larger than the 32-bit address space, so no size
// computed from a record overflows and no length outgrows its header word.
const maxWords = 1<<30 - heap.HeaderBytes/heap.WordBytes

// shape is a type record's layout and name; the name aliases the trace.
type shape struct {
	kind        heap.Kind
	refs, words int
	name        []byte
}

// event is one decoded record: its op code and arguments, and the
// shape of the type a type record defines or an allocation names.
type event struct {
	code byte
	arg  [4]uint64
	typ  shape
}

// decoder is the trace format's one reader. Besides the bytes it checks
// everything about a record that needs no heap: a type record's layout,
// that an allocation names a defined type, and — on a root table run as
// replay will run it on a fresh heap — that every handle is live,
// recorded as the table mints it, and every scope closes one opened.
type decoder struct {
	buf   []byte
	pos   int
	types []shape // by type index, less one
	roots *gc.RootSet
}

// decode calls f on each of buf's records in order, and stops at the
// first record that is malformed or that f refuses.
func decode(buf []byte, f func(*event) error) error {
	d := decoder{buf: buf, roots: gc.NewRootSet()}
	var r event
	for d.pos < len(buf) {
		if err := d.next(&r); err != nil {
			return err
		}
		if err := f(&r); err != nil {
			return err
		}
	}
	return nil
}

// next decodes the record at d.pos into r. The root table panics on a
// handle it does not hold and on a Pop with no Push; that is a malformed
// record, returned as an error.
func (d *decoder) next(r *event) (err error) {
	at := d.pos
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("trace: op %d at %d: %v", r.code, at, p)
		}
	}()
	r.code = d.buf[d.pos]
	d.pos++
	if int(r.code) >= len(arity) || r.code == 0 {
		return fmt.Errorf("trace: unknown op %d at %d", r.code, at)
	}
	for i := 0; i < arity[r.code]; i++ {
		if d.pos < len(d.buf) && d.buf[d.pos] < 0x80 { // most arguments are one byte
			r.arg[i] = uint64(d.buf[d.pos])
			d.pos++
			continue
		}
		v, n := binary.Uvarint(d.buf[d.pos:])
		if n <= 0 {
			return fmt.Errorf("trace: bad varint at %d", d.pos)
		}
		r.arg[i] = v
		d.pos += n
	}
	var minted gc.Handle // the handle the record roots, if any
	var want uint64
	switch a := &r.arg; r.code {
	case opDefineType:
		// Compared unsigned: a count of 2^63 or more is negative as an int.
		// A header's type field holds 2^24-1 types.
		if a[0] > uint64(heap.WordArray) || a[1] > maxWords || a[2] > maxWords-a[1] ||
			heap.Kind(a[0]) != heap.Scalar && a[1]+a[2] != 0 ||
			a[3] > uint64(len(d.buf)-d.pos) || len(d.types) >= 1<<24-1 {
			return fmt.Errorf("trace: bad type record at %d", at)
		}
		r.typ = shape{heap.Kind(a[0]), int(a[1]), int(a[2]), d.buf[d.pos : d.pos+int(a[3])]}
		d.pos += int(a[3])
		for _, t := range d.types { // a trace defines its few types once each
			if bytes.Equal(t.name, r.typ.name) && (t.kind != r.typ.kind || t.refs != r.typ.refs || t.words != r.typ.words) {
				return fmt.Errorf("trace: type %q redefined with another shape at %d", t.name, at)
			}
		}
		d.types = append(d.types, r.typ)
	case opAlloc, opAllocGlobal, opAllocImmortal, opAllocPretenured:
		if a[0] == 0 || a[0] > uint64(len(d.types)) {
			return fmt.Errorf("trace: alloc of undefined type %d at %d", a[0], at)
		}
		r.typ = d.types[a[0]-1]
		if r.typ.kind == heap.Scalar && a[1] != 0 || a[1] > maxWords {
			return fmt.Errorf("trace: bad length %d for type %q at %d", a[1], r.typ.name, at)
		}
		if r.code == opAllocGlobal || r.code == opAllocPretenured && a[3] == 1 {
			minted = d.roots.AddGlobal(live)
		} else {
			minted = d.roots.Add(live)
		}
		want = a[2]
	case opSetRef, opGetRef, opRefIsNil, opSetData, opGetData:
		if d.roots.Get(handle(a[0])) == heap.Nil {
			return fmt.Errorf("trace: nil receiver %d of op %d at %d", a[0], r.code, at)
		}
		if r.code == opSetRef {
			d.roots.Get(handle(a[2]))
		} else if r.code == opGetRef && a[2] != 0 {
			minted, want = d.roots.Add(live), a[2]
		}
	case opRelease:
		d.roots.Remove(handle(a[0]))
	case opPush:
		d.roots.PushScope()
	case opPop:
		d.roots.PopScope()
	case opKeep:
		minted, want = d.roots.AddGlobal(d.roots.Get(handle(a[0]))), a[1]
	case opWork:
		if a[0] > math.MaxInt { // negative as an int: the clock would run back
			return fmt.Errorf("trace: work %d at %d", a[0], at)
		}
	}
	if uint64(minted) != want {
		return fmt.Errorf("trace: op %d at %d roots handle %d, recorded %d", r.code, at, minted, want)
	}
	return nil
}

// handle is a recorded handle argument. One too large to be a handle
// becomes one no root table holds, rather than wrapping onto a live one.
func handle(v uint64) gc.Handle {
	if v > math.MaxInt32 {
		return -1
	}
	return gc.Handle(v)
}

// AllocBytes sums the heap bytes the trace's allocations request
// (object headers included, immortal boot-image allocations too). A
// differential driver sizes replay heaps from it so that completion is
// configuration-independent and OOM verdicts stay comparable.
func (t *Trace) AllocBytes() (int, error) {
	total := 0
	err := decode(t.buf, func(r *event) error {
		switch r.code {
		case opAlloc, opAllocGlobal, opAllocImmortal, opAllocPretenured:
			words := int(r.arg[1])
			if r.typ.kind == heap.Scalar {
				words = r.typ.refs + r.typ.words
			}
			total += heap.HeaderBytes + words*heap.WordBytes
		}
		return nil
	})
	return total, err
}

// NumOps returns the number of mutator operations in the trace. Type
// definitions are structural records, not mutator operations, and are
// not counted.
func (t *Trace) NumOps() (int, error) {
	n := 0
	err := decode(t.buf, func(r *event) error {
		if r.code != opDefineType {
			n++
		}
		return nil
	})
	return n, err
}
