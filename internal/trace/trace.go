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

// Replay executes the trace against a fresh mutator. Handle values are
// asserted against the recording as replay proceeds; a mismatch means
// the trace is corrupt or the root-set discipline changed. An
// out-of-memory condition is returned as the gc error, exactly as for a
// live workload run.
func Replay(t *Trace, m *vm.Mutator) error {
	var rerr error
	if err := m.Run(func() { rerr = t.play(m) }); err != nil {
		return err // OOM during replay
	}
	return rerr
}

// play repeats the trace's operations on m, inside Replay's m.Run.
func (t *Trace) play(m *vm.Mutator) error {
	types := m.C.Space().Types
	var typeTab []*heap.TypeDesc // index 0 unused
	typeTab = append(typeTab, nil)

	buf := t.buf
	pos := 0
	next := func() (uint64, error) {
		v, n := binary.Uvarint(buf[pos:])
		if n <= 0 {
			return 0, fmt.Errorf("trace: bad varint at %d", pos)
		}
		pos += n
		return v, nil
	}
	for pos < len(buf) {
		op := buf[pos]
		pos++
		switch op {
		case opDefineType:
			kind, _ := next()
			refs, _ := next()
			words, _ := next()
			nameLen, err := next()
			if err != nil || nameLen > uint64(len(buf)-pos) || kind > uint64(heap.WordArray) {
				return fmt.Errorf("trace: bad type record")
			}
			name := string(buf[pos : pos+int(nameLen)])
			pos += int(nameLen)
			td := types.Lookup(name)
			if td == nil {
				td = types.Define(name, heap.Kind(kind), int(refs), int(words))
			}
			typeTab = append(typeTab, td)
		case opAlloc, opAllocGlobal, opAllocImmortal:
			ti, _ := next()
			length, _ := next()
			want, err := next()
			if err != nil || ti == 0 || ti >= uint64(len(typeTab)) {
				return fmt.Errorf("trace: bad alloc record")
			}
			var h gc.Handle
			switch op {
			case opAlloc:
				h = m.Alloc(typeTab[ti], int(length))
			case opAllocGlobal:
				h = m.AllocGlobal(typeTab[ti], int(length))
			default:
				h = m.AllocImmortal(typeTab[ti], int(length))
			}
			if uint64(h) != want {
				return fmt.Errorf("trace: alloc handle drift: got %d want %d", h, want)
			}
		case opSetRef:
			obj, _ := next()
			slot, _ := next()
			val, err := next()
			if err != nil {
				return fmt.Errorf("trace: bad setref")
			}
			if gc.Handle(val) == gc.NilHandle {
				m.SetRefNil(gc.Handle(obj), int(slot))
			} else {
				m.SetRef(gc.Handle(obj), int(slot), gc.Handle(val))
			}
		case opGetRef:
			obj, _ := next()
			slot, _ := next()
			want, err := next()
			if err != nil {
				return fmt.Errorf("trace: bad getref")
			}
			h := m.GetRef(gc.Handle(obj), int(slot))
			if uint64(h) != want {
				return fmt.Errorf("trace: getref handle drift: got %d want %d", h, want)
			}
		case opRefIsNil:
			obj, _ := next()
			slot, err := next()
			if err != nil {
				return fmt.Errorf("trace: bad refisnil")
			}
			m.RefIsNil(gc.Handle(obj), int(slot))
		case opRelease:
			h, err := next()
			if err != nil {
				return err
			}
			m.Release(gc.Handle(h))
		case opPush:
			m.Push()
		case opPop:
			m.Pop()
		case opSetData:
			obj, _ := next()
			i, _ := next()
			v, err := next()
			if err != nil {
				return err
			}
			m.SetData(gc.Handle(obj), int(i), uint32(v))
		case opGetData:
			obj, _ := next()
			i, err := next()
			if err != nil {
				return err
			}
			m.GetData(gc.Handle(obj), int(i))
		case opWork:
			n, err := next()
			if err != nil {
				return err
			}
			m.Work(int(n))
		case opCollect:
			f, err := next()
			if err != nil {
				return err
			}
			m.Collect(f == 1)
		case opKeep:
			h, _ := next()
			want, err := next()
			if err != nil {
				return err
			}
			out := m.Keep(gc.Handle(h))
			if uint64(out) != want {
				return fmt.Errorf("trace: keep handle drift: got %d want %d", out, want)
			}
		case opAllocPretenured:
			ti, _ := next()
			length, _ := next()
			want, _ := next()
			g, err := next()
			if err != nil || ti == 0 || ti >= uint64(len(typeTab)) {
				return fmt.Errorf("trace: bad pretenured alloc record")
			}
			var h gc.Handle
			if g == 1 {
				h = m.AllocPretenuredGlobal(typeTab[ti], int(length))
			} else {
				h = m.AllocPretenured(typeTab[ti], int(length))
			}
			if uint64(h) != want {
				return fmt.Errorf("trace: pretenured handle drift: got %d want %d", h, want)
			}
		default:
			return fmt.Errorf("trace: unknown op %d at %d", op, pos-1)
		}
	}
	return nil
}
