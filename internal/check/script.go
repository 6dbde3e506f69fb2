// Package check is the correctness subsystem: a differential oracle
// that runs one subject through many collector configurations and asserts
// that every configuration preserves the mutator-observable semantics —
// the paper's central claim that all points in the Beltway configuration
// space are *correct* copying collectors, checked mechanically rather
// than per-hand-written-test.
//
// Every battery is the same sequence, written once:
//
//   - Subject: a Script — a closed, total little language of mutator
//     operations. Every byte string decodes to a script and every
//     subsequence of a script is itself runnable (operands are taken
//     modulo the live-handle count), which is what makes both fuzzing
//     and delta-debugging trivial — or a recorded trace.Trace.
//   - Sized configurations: HeapBytesFor turns the subject's allocation
//     volume into a heap every configuration completes in and Sized gives
//     it to each of them; nothing else decides heap geometry.
//   - One run per participant: run builds the heap under the vm.Validator
//     shadow graph, the invariant checker and the serial tap, drives it
//     (replays the trace, or executes the script) and turns every way
//     that can end into an Outcome.
//   - Pairwise verdict: compare holds two Outcomes to each other on OOM
//     verdict, allocation-serial stream and final live-graph fingerprint.
//     Cost and telemetry fields are explicitly NOT part of equivalence —
//     they are policy.
//   - Report: the Divergences, one per line.
//
// The batteries are what differs. Differential / RunScript record on the
// first configuration, replay on all and compare each with a reference;
// RunScriptSharded deals the script over
// lanes and compares the concurrent schedule with the serial, lane by
// lane. Minimize / MinimizeTrace shrink a failure deterministically (ddmin
// over the subject's operations, then over config structure) to a small
// reproducer, written to testdata/ as a regression Fixture.
package check

import (
	"fmt"
	"math/rand"

	"beltway/internal/gc"
	"beltway/internal/heap"
	"beltway/internal/vm"
)

// OpKind enumerates the script operations. The set mirrors vm.Mutator's
// surface (and therefore the trace op set), minus raw handle plumbing:
// operands are small indexes resolved modulo the current live-handle
// list, so every op sequence is executable.
type OpKind uint8

const (
	OpAlloc          OpKind = iota // scalar node in current scope
	OpAllocBig                     // larger scalar (4 refs, 8 data)
	OpAllocArr                     // ref array, length 1 + A%24
	OpAllocWords                   // word array, length 1 + A%24
	OpAllocLarge                   // ref array filling most of a frame
	OpAllocGlobal                  // scalar node, scope-independent root
	OpAllocPretenure               // scalar node on an older belt
	OpAllocImmortal                // scalar node in the boot image
	OpSetRef                       // live[A].ref[B] = live[C]
	OpSetRefNil                    // live[A].ref[B] = nil
	OpGetRef                       // load live[A].ref[B] into a new handle
	OpSetData                      // live[A].data[B] = C
	OpGetData                      // read live[A].data[B]
	OpRelease                      // drop live[A]
	OpKeep                         // re-root live[A] outside its scope
	OpPush                         // open a root scope
	OpPop                          // close the innermost root scope
	OpWork                         // A units of application work
	OpCollect                      // forced nursery collection
	OpCollectFull                  // forced full-heap collection
	nOpKinds
)

var opNames = [...]string{
	"alloc", "allocBig", "allocArr", "allocWords", "allocLarge",
	"allocGlobal", "allocPretenure", "allocImmortal",
	"setRef", "setRefNil", "getRef", "setData", "getData",
	"release", "keep", "push", "pop", "work", "collect", "collectFull",
}

func (k OpKind) String() string {
	if int(k) < len(opNames) {
		return opNames[k]
	}
	return fmt.Sprintf("OpKind(%d)", uint8(k))
}

// Op is one script operation. Operand meaning depends on Kind; operands
// are bytes so that Encode∘Decode is the identity on canonical scripts.
type Op struct {
	Kind OpKind `json:"k"`
	A    byte   `json:"a,omitempty"`
	B    byte   `json:"b,omitempty"`
	C    byte   `json:"c,omitempty"`
}

// Script is a runnable operation sequence. Any subsequence of a valid
// script is valid: object-selecting operands index the live-handle list
// modulo its length, and unmatched Pop/excess Push are skipped.
type Script []Op

// maxScriptOps bounds decoded scripts so a fuzz input cannot demand an
// unbounded amount of simulation.
const maxScriptOps = 2048

// largeArrayLen is the element count used by OpAllocLarge: an array
// filling most of the oracle's 4 KiB frame, the largest object a script
// allocates. No object spans frames.
const largeArrayLen = 600

// DecodeScript turns arbitrary bytes into a script: 4 bytes per op,
// [kind, a, b, c], kind taken modulo the op count. It is total — every
// input decodes — and exact on canonical scripts (see Encode).
func DecodeScript(data []byte) Script {
	n := len(data) / 4
	if n > maxScriptOps {
		n = maxScriptOps
	}
	s := make(Script, 0, n)
	for i := 0; i < n; i++ {
		b := data[i*4:]
		s = append(s, Op{Kind: OpKind(b[0] % byte(nOpKinds)), A: b[1], B: b[2], C: b[3]})
	}
	return s
}

// RandomScript draws the script of one random oracle round: 32 to 511
// operations decoded from random bytes.
func RandomScript(rng *rand.Rand) Script {
	raw := make([]byte, 4*(32+rng.Intn(480)))
	rng.Read(raw)
	return DecodeScript(raw)
}

// Encode renders the script in the byte form DecodeScript reads. It is
// used to build fuzz seed-corpus entries from hand-shaped scripts.
func (s Script) Encode() []byte {
	out := make([]byte, 0, len(s)*4)
	for _, op := range s {
		out = append(out, byte(op.Kind), op.A, op.B, op.C)
	}
	return out
}

// scriptTypes is the fixed type vocabulary scripts allocate from.
type scriptTypes struct {
	node, big, arr, words *heap.TypeDesc
}

func defineScriptTypes(r *heap.Registry) scriptTypes {
	lookupOr := func(name string, def func() *heap.TypeDesc) *heap.TypeDesc {
		if t := r.Lookup(name); t != nil {
			return t
		}
		return def()
	}
	return scriptTypes{
		node:  lookupOr("chk.node", func() *heap.TypeDesc { return r.DefineScalar("chk.node", 2, 2) }),
		big:   lookupOr("chk.big", func() *heap.TypeDesc { return r.DefineScalar("chk.big", 4, 8) }),
		arr:   lookupOr("chk.arr", func() *heap.TypeDesc { return r.DefineRefArray("chk.arr") }),
		words: lookupOr("chk.words", func() *heap.TypeDesc { return r.DefineWordArray("chk.words") }),
	}
}

// arrayLen maps an operand byte to a bounded array length.
func arrayLen(a byte) int { return 1 + int(a)%24 }

// AllocBytes returns the total bytes the script requests from the
// collected heap (boot-image allocation excluded). The oracle sizes
// heaps from it so that even a collector that reclaims nothing — e.g. an
// incomplete configuration facing cyclic garbage — completes the run,
// making OOM verdicts comparable across configurations.
func (s Script) AllocBytes() int {
	total := 0
	for _, op := range s {
		switch op.Kind {
		case OpAlloc, OpAllocGlobal, OpAllocPretenure:
			total += (3 + 2 + 2) * heap.WordBytes
		case OpAllocBig:
			total += (3 + 4 + 8) * heap.WordBytes
		case OpAllocArr, OpAllocWords:
			total += (3 + arrayLen(op.A)) * heap.WordBytes
		case OpAllocLarge:
			total += (3 + largeArrayLen) * heap.WordBytes
		}
	}
	return total
}

// liveEntry tracks one handle the interpreter may use as an operand.
// depth is the scope depth the handle dies at (-1 for scope-independent
// roots, 0 for handles created outside any scope).
type liveEntry struct {
	h     gc.Handle
	depth int
}

// maxScopeDepth bounds Push nesting in scripts.
const maxScopeDepth = 8

// Execute runs the script against a mutator. It is deterministic and
// total: operands select among currently-live handles modulo their
// count, structurally impossible ops (Pop at depth zero, SetData on an
// object without data words) are skipped, and open scopes are closed at
// the end. An out-of-memory condition propagates as the usual vm panic
// to the caller's Run.
func Execute(s Script, m *vm.Mutator) {
	e := NewExecutor(m)
	for _, op := range s {
		e.Do(op)
	}
	e.Close()
}

// Executor is the script interpreter's resumable form: the same
// semantics as Execute, but stepped one Op at a time so a script can be
// cut into rounds (the sharded oracle interleaves rounds of N
// executors with global collections between them). An
// Executor holds the live-handle list and scope depth across calls;
// Execute is exactly NewExecutor + Do per op + Close.
type Executor struct {
	m     *vm.Mutator
	types scriptTypes
	live  []liveEntry
	depth int
}

// NewExecutor prepares a stepping interpreter on m, defining the
// script type vocabulary in m's registry if absent.
func NewExecutor(m *vm.Mutator) *Executor {
	return &Executor{m: m, types: defineScriptTypes(m.C.Space().Types)}
}

// Close closes any scopes still open. A finished script must be
// Closed before its heap is fingerprinted.
func (e *Executor) Close() {
	for e.depth > 0 {
		e.closeScope()
	}
}

func (e *Executor) pick(a byte) int { return int(a) % len(e.live) }

func (e *Executor) closeScope() {
	kept := e.live[:0]
	for _, en := range e.live {
		if en.depth != e.depth {
			kept = append(kept, en)
		}
	}
	e.live = kept
	e.depth--
	e.m.Pop()
}

// Do executes one operation.
func (e *Executor) Do(op Op) {
	m := e.m
	switch op.Kind {
	case OpAlloc:
		e.live = append(e.live, liveEntry{m.Alloc(e.types.node, 0), e.depth})
	case OpAllocBig:
		e.live = append(e.live, liveEntry{m.Alloc(e.types.big, 0), e.depth})
	case OpAllocArr:
		e.live = append(e.live, liveEntry{m.Alloc(e.types.arr, arrayLen(op.A)), e.depth})
	case OpAllocWords:
		e.live = append(e.live, liveEntry{m.Alloc(e.types.words, arrayLen(op.A)), e.depth})
	case OpAllocLarge:
		e.live = append(e.live, liveEntry{m.Alloc(e.types.arr, largeArrayLen), e.depth})
	case OpAllocGlobal:
		e.live = append(e.live, liveEntry{m.AllocGlobal(e.types.node, 0), -1})
	case OpAllocPretenure:
		e.live = append(e.live, liveEntry{m.AllocPretenuredGlobal(e.types.node, 0), -1})
	case OpAllocImmortal:
		e.live = append(e.live, liveEntry{m.AllocImmortal(e.types.node, 0), e.depth})
	case OpSetRef:
		if len(e.live) == 0 {
			return
		}
		obj := e.live[e.pick(op.A)].h
		if n := numRefSlots(m, obj); n > 0 {
			m.SetRef(obj, int(op.B)%n, e.live[e.pick(op.C)].h)
		}
	case OpSetRefNil:
		if len(e.live) == 0 {
			return
		}
		obj := e.live[e.pick(op.A)].h
		if n := numRefSlots(m, obj); n > 0 {
			m.SetRefNil(obj, int(op.B)%n)
		}
	case OpGetRef:
		if len(e.live) == 0 {
			return
		}
		obj := e.live[e.pick(op.A)].h
		if n := numRefSlots(m, obj); n > 0 {
			if h := m.GetRef(obj, int(op.B)%n); h != gc.NilHandle {
				e.live = append(e.live, liveEntry{h, e.depth})
			}
		}
	case OpSetData:
		if len(e.live) == 0 {
			return
		}
		obj := e.live[e.pick(op.A)].h
		if n := numDataWords(m, obj); n > 0 {
			m.SetData(obj, int(op.B)%n, uint32(op.C))
		}
	case OpGetData:
		if len(e.live) == 0 {
			return
		}
		obj := e.live[e.pick(op.A)].h
		if n := numDataWords(m, obj); n > 0 {
			m.GetData(obj, int(op.B)%n)
		}
	case OpRelease:
		if len(e.live) == 0 {
			return
		}
		i := e.pick(op.A)
		m.Release(e.live[i].h)
		e.live[i] = e.live[len(e.live)-1]
		e.live = e.live[:len(e.live)-1]
	case OpKeep:
		if len(e.live) == 0 {
			return
		}
		e.live = append(e.live, liveEntry{m.Keep(e.live[e.pick(op.A)].h), -1})
	case OpPush:
		if e.depth < maxScopeDepth {
			e.depth++
			m.Push()
		}
	case OpPop:
		if e.depth > 0 {
			e.closeScope()
		}
	case OpWork:
		m.Work(1 + int(op.A)%64)
	case OpCollect:
		m.Collect(false)
	case OpCollectFull:
		m.Collect(true)
	}
}

func numRefSlots(m *vm.Mutator, obj gc.Handle) int {
	t := m.TypeOf(obj)
	switch t.Kind {
	case heap.Scalar:
		return t.RefSlots
	case heap.RefArray:
		return m.Length(obj)
	default:
		return 0
	}
}

func numDataWords(m *vm.Mutator, obj gc.Handle) int {
	t := m.TypeOf(obj)
	switch t.Kind {
	case heap.Scalar:
		return t.DataWords
	case heap.WordArray:
		return m.Length(obj)
	default:
		return 0
	}
}

// String renders the script one op per line, for failure reports.
func (s Script) String() string {
	out := ""
	for i, op := range s {
		out += fmt.Sprintf("%3d: %-14s a=%-3d b=%-3d c=%d\n", i, op.Kind, op.A, op.B, op.C)
	}
	return out
}
