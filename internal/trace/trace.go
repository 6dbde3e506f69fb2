// Package trace records and replays mutator event streams. A trace
// captures every vm.Mutator operation that charges the clock, changes the
// heap or moves a root — allocations, barriered pointer stores, pointer
// loads and nil tests, data reads and writes, root scope changes,
// application work, forced collections — so a workload can be executed
// once and replayed bit-identically against any collector configuration:
// the classic trace-driven methodology of GC research (cf. Stefanović's
// lifetime studies the paper builds on). The accessors it leaves out
// (Length, TypeOf, Serial, SameObject) are free and change nothing; see
// vm.Recorder.
//
// Handles are stable across collectors: gc.RootSet assigns them purely
// by operation order, so the recorded handle values replay exactly, and
// the player asserts this as it goes.
package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"beltway/internal/gc"
	"beltway/internal/heap"
	"beltway/internal/vm"
)

// op codes. The format is a flat varint stream: [op] [args...].
const (
	opDefineType    byte = iota + 1 // kind, refSlots, dataWords, nameLen, name
	opAlloc                         // typeIdx, length, handle
	opAllocGlobal                   // typeIdx, length, handle
	opAllocImmortal                 // typeIdx, length, handle
	opSetRef                        // obj, slot, val (val 0 = nil)
	opGetRef                        // obj, slot, handle (0 = nil result)
	opRelease                       // handle
	opPush
	opPop
	opSetData         // obj, index, value
	opGetData         // obj, index
	opWork            // n
	opCollect         // full (0/1)
	opKeep            // handle, newHandle
	opAllocPretenured // typeIdx, length, handle, global(0/1)
	opRefIsNil        // obj, slot
)

// Trace is a recorded mutator event stream.
type Trace struct {
	buf []byte

	// recording state
	types   map[*heap.TypeDesc]uint64
	nTypes  uint64
	stopped bool
}

// NewTrace returns an empty trace ready to record.
func NewTrace() *Trace {
	return &Trace{types: make(map[*heap.TypeDesc]uint64)}
}

// Len returns the encoded size in bytes.
func (t *Trace) Len() int { return len(t.buf) }

func (t *Trace) emit(op byte, args ...uint64) {
	t.buf = append(t.buf, op)
	var tmp [binary.MaxVarintLen64]byte
	for _, a := range args {
		n := binary.PutUvarint(tmp[:], a)
		t.buf = append(t.buf, tmp[:n]...)
	}
}

func (t *Trace) typeIdx(td *heap.TypeDesc) uint64 {
	if i, ok := t.types[td]; ok {
		return i
	}
	t.nTypes++
	i := t.nTypes
	t.types[td] = i
	t.emit(opDefineType, uint64(td.Kind), uint64(td.RefSlots), uint64(td.DataWords),
		uint64(len(td.Name)))
	t.buf = append(t.buf, td.Name...)
	return i
}

// Recorder hooks: called by vm.Mutator when recording is attached.

// Alloc records an allocation and the handle it produced.
func (t *Trace) Alloc(td *heap.TypeDesc, length int, h gc.Handle, global, immortal bool) {
	op := opAlloc
	if immortal {
		op = opAllocImmortal
	} else if global {
		op = opAllocGlobal
	}
	ti := t.typeIdx(td)
	t.emit(op, ti, uint64(length), uint64(h))
}

// SetRef records a barriered pointer store (val may be NilHandle).
func (t *Trace) SetRef(obj gc.Handle, slot int, val gc.Handle) {
	t.emit(opSetRef, uint64(obj), uint64(slot), uint64(val))
}

// GetRef records a pointer load and the handle created for the referent.
func (t *Trace) GetRef(obj gc.Handle, slot int, out gc.Handle) {
	v := uint64(0)
	if out != gc.NilHandle {
		v = uint64(out)
	}
	t.emit(opGetRef, uint64(obj), uint64(slot), v)
}

// RefIsNil records a nil test of a reference slot: a charged reference
// read that mints no handle, so it cannot ride on opGetRef, whose replay
// would root the referent and shift every handle after it.
func (t *Trace) RefIsNil(obj gc.Handle, slot int) { t.emit(opRefIsNil, uint64(obj), uint64(slot)) }

// Release records an explicit handle release.
func (t *Trace) Release(h gc.Handle) { t.emit(opRelease, uint64(h)) }

// Push records a root-scope open.
func (t *Trace) Push() { t.emit(opPush) }

// Pop records a root-scope close.
func (t *Trace) Pop() { t.emit(opPop) }

// SetData records a data-word store.
func (t *Trace) SetData(obj gc.Handle, i int, v uint32) {
	t.emit(opSetData, uint64(obj), uint64(i), uint64(v))
}

// GetData records a data-word load.
func (t *Trace) GetData(obj gc.Handle, i int) { t.emit(opGetData, uint64(obj), uint64(i)) }

// Work records n units of application work.
func (t *Trace) Work(n int) { t.emit(opWork, uint64(n)) }

// Collect records a forced collection.
func (t *Trace) Collect(full bool) {
	f := uint64(0)
	if full {
		f = 1
	}
	t.emit(opCollect, f)
}

// Keep records a scope-escape re-rooting.
func (t *Trace) Keep(h, out gc.Handle) { t.emit(opKeep, uint64(h), uint64(out)) }

// AllocPretenured records a pretenured allocation.
func (t *Trace) AllocPretenured(td *heap.TypeDesc, length int, h gc.Handle, global bool) {
	g := uint64(0)
	if global {
		g = 1
	}
	ti := t.typeIdx(td)
	t.emit(opAllocPretenured, ti, uint64(length), uint64(h), g)
}

// WriteTo serializes the trace.
func (t *Trace) WriteTo(w io.Writer) (int64, error) {
	var hdr [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(hdr[:], uint64(len(t.buf)))
	if _, err := w.Write(hdr[:n]); err != nil {
		return 0, err
	}
	m, err := w.Write(t.buf)
	return int64(n + m), err
}

// ReadFrom deserializes a trace written by WriteTo.
func ReadFrom(r io.Reader) (*Trace, error) {
	br := bufio.NewReader(r)
	size, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("trace: bad header: %w", err)
	}
	// The header is untrusted: the buffer grows with the bytes that arrive,
	// never to the size the header claims before they do.
	buf, err := io.ReadAll(io.LimitReader(br, int64(size)))
	if err != nil {
		return nil, fmt.Errorf("trace: truncated: %w", err)
	}
	if uint64(len(buf)) != size {
		return nil, fmt.Errorf("trace: truncated: %w", io.ErrUnexpectedEOF)
	}
	return &Trace{buf: buf}, nil
}

// Replay executes the trace against a fresh mutator. It returns nil when
// every operation ran. A corrupt trace is an error starting "trace: ",
// never a panic, raised at the first record at fault: one malformed in
// itself (an unknown op, a bad type record, an allocation of an undefined
// type, a handle that is not live or not the one the root table mints,
// an unbalanced scope), or a slot or data index past the object it names.
// Handle values are asserted against the recording as replay proceeds; a
// mismatch means the trace is corrupt or the root-set discipline changed.
// An allocation the collector refuses (out of memory, or an object larger
// than a frame) is returned as the collector's error, exactly as for a
// live workload run.
func Replay(t *Trace, m *vm.Mutator) error {
	var rerr error
	if err := m.Run(func() { rerr = t.play(m) }); err != nil {
		return err // OOM during replay
	}
	return rerr
}

// play repeats the trace's operations on m, inside Replay's m.Run. The
// decoder has checked each record; what is left is what depends on the
// heap: the handles m's root table mints, and the slots of each object.
func (t *Trace) play(m *vm.Mutator) error {
	types := m.C.Space().Types
	var typeTab []*heap.TypeDesc // by type index, less one
	return decode(t.buf, func(r *event) error {
		a := &r.arg
		obj := gc.Handle(a[0])
		var h gc.Handle // the handle the operation rooted
		var want uint64 // and the one the trace recorded
		switch r.code {
		case opDefineType:
			td := types.Lookup(string(r.typ.name))
			if td == nil {
				td = types.Define(string(r.typ.name), r.typ.kind, r.typ.refs, r.typ.words)
			} else if td.Kind != r.typ.kind || td.RefSlots != r.typ.refs || td.DataWords != r.typ.words {
				return fmt.Errorf("trace: type %q has another shape on this heap", td.Name)
			}
			typeTab = append(typeTab, td)
		case opAlloc:
			h, want = m.Alloc(typeTab[a[0]-1], int(a[1])), a[2]
		case opAllocGlobal:
			h, want = m.AllocGlobal(typeTab[a[0]-1], int(a[1])), a[2]
		case opAllocImmortal:
			h, want = m.AllocImmortal(typeTab[a[0]-1], int(a[1])), a[2]
		case opAllocPretenured:
			if a[3] == 1 {
				h, want = m.AllocPretenuredGlobal(typeTab[a[0]-1], int(a[1])), a[2]
			} else {
				h, want = m.AllocPretenured(typeTab[a[0]-1], int(a[1])), a[2]
			}
		case opSetRef, opGetRef, opRefIsNil, opSetData, opGetData:
			// An object reached through GetRef has a type no static pass
			// knows, so every slot and index is bounded here.
			td, n := m.TypeOf(obj), m.Length(obj)
			limit := td.NumRefs(n)
			if r.code == opSetData || r.code == opGetData {
				limit = td.Size(n)/heap.WordBytes - heap.HeaderBytes/heap.WordBytes - limit
			}
			if a[1] >= uint64(limit) {
				return fmt.Errorf("trace: op %d: index %d past the %d of a %s", r.code, a[1], limit, td.Name)
			}
			switch i := int(a[1]); r.code {
			case opSetRef:
				if val := gc.Handle(a[2]); val == gc.NilHandle {
					m.SetRefNil(obj, i)
				} else {
					m.SetRef(obj, i, val)
				}
			case opGetRef:
				h, want = m.GetRef(obj, i), a[2]
			case opRefIsNil:
				m.RefIsNil(obj, i)
			case opSetData:
				m.SetData(obj, i, uint32(a[2]))
			case opGetData:
				m.GetData(obj, i)
			}
		case opRelease:
			m.Release(obj)
		case opPush:
			m.Push()
		case opPop:
			m.Pop()
		case opWork:
			m.Work(int(a[0]))
		case opCollect:
			m.Collect(a[0] == 1)
		case opKeep:
			h, want = m.Keep(obj), a[1]
		}
		if uint64(h) != want {
			return fmt.Errorf("trace: op %d handle drift: got %d want %d", r.code, h, want)
		}
		return nil
	})
}
