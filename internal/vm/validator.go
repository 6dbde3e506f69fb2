package vm

import (
	"fmt"
	"sort"
	"strings"

	"beltway/internal/gc"
	"beltway/internal/heap"
	"beltway/internal/telemetry"
)

// mirror is the shadow copy of one simulated object, keyed by its
// allocation serial (which survives moves, unlike its address).
type mirror struct {
	t      *heap.TypeDesc
	length int
	refs   []uint32 // referent serials; 0 means nil
	data   []uint32
}

// Validator maintains a native-Go shadow of the entire simulated object
// graph and, after every collection, verifies that the collector
// preserved it: every shadow-reachable object must still exist exactly
// once, with the same type, length, data words and (serial-level)
// outgoing references. It catches lost objects, wild forwarding, missed
// remembered-set entries, double copies and data corruption.
type Validator struct {
	mut     *Mutator
	mirrors map[uint32]*mirror
	// tele records the collector's GC event stream so a failed check can
	// dump the history that led to the violation.
	tele *telemetry.Run
	// Failures collects diagnostics; Check panics on the first failure
	// by default so test output points at the offending collection.
	PanicOnFailure bool
}

// validatorDumpEvents is how many trailing flight-recorder events a
// failed check attaches to its error.
const validatorDumpEvents = 32

func newValidator(m *Mutator) *Validator {
	v := &Validator{mut: m, mirrors: make(map[uint32]*mirror), PanicOnFailure: true}
	if hk, ok := m.C.(gc.Hookable); ok {
		v.tele = telemetry.NewRun(m.C.Clock())
		check := gc.Hooks{PostGC: func() {
			if err := v.Check(); err != nil {
				if v.PanicOnFailure {
					panic(err)
				}
			}
		}}
		// The recorder's hooks run first so the failing collection's own
		// events (GCEnd, occupancy) are already recorded when Check dumps.
		hk.SetHooks(v.tele.Hooks().Merge(check))
	}
	return v
}

// dump decorates a validation error with the recent GC event history.
func (v *Validator) dump(err error) error {
	if err == nil || v.tele == nil {
		return err
	}
	events := v.tele.Recorder().Last(validatorDumpEvents)
	if len(events) == 0 {
		return err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%v\nlast %d GC events:\n", err, len(events))
	for _, e := range events {
		b.WriteString("  ")
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	return fmt.Errorf("%s", strings.TrimRight(b.String(), "\n"))
}

func (v *Validator) serialOf(a heap.Addr) uint32 {
	if a == heap.Nil {
		return 0
	}
	return v.mut.C.Space().Serial(a)
}

func (v *Validator) noteAlloc(a heap.Addr, t *heap.TypeDesc, length int) {
	s := v.mut.C.Space()
	mir := &mirror{t: t, length: length}
	if n := t.NumRefs(length); n > 0 {
		mir.refs = make([]uint32, n)
	}
	if n := s.DataWords(a); n > 0 {
		mir.data = make([]uint32, n)
	}
	v.mirrors[s.Serial(a)] = mir
}

func (v *Validator) noteSetRef(obj heap.Addr, i int, val heap.Addr) {
	v.mirrors[v.serialOf(obj)].refs[i] = v.serialOf(val)
}

func (v *Validator) noteSetData(obj heap.Addr, i int, val uint32) {
	v.mirrors[v.serialOf(obj)].data[i] = val
}

// Check verifies the heap against the shadow graph. It is invoked
// automatically after every collection and may be called manually. A
// failure's error includes the last flight-recorder events, so the
// invariant violation comes with the GC history that produced it.
func (v *Validator) Check() error {
	return v.dump(v.check())
}

func (v *Validator) check() error {
	sp := v.mut.C.Space()

	// Index every object currently in the heap by serial.
	addrOf := make(map[uint32]heap.Addr, len(v.mirrors))
	var dup error
	v.mut.C.ForEachObject(func(a heap.Addr) bool {
		ser := sp.Serial(a)
		if prev, ok := addrOf[ser]; ok {
			dup = fmt.Errorf("vm: serial %d present twice, at %v and %v", ser, prev, a)
			return false
		}
		addrOf[ser] = a
		return true
	})
	if dup != nil {
		return dup
	}

	// Shadow-reachable serials, from the root table.
	reach := make(map[uint32]bool)
	var stack []uint32
	v.mut.roots.Walk(func(a heap.Addr) heap.Addr {
		if ser := sp.Serial(a); !reach[ser] {
			reach[ser] = true
			stack = append(stack, ser)
		}
		return a
	})
	for len(stack) > 0 {
		ser := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		mir := v.mirrors[ser]
		if mir == nil {
			return fmt.Errorf("vm: reachable serial %d has no mirror", ser)
		}
		for _, rs := range mir.refs {
			if rs != 0 && !reach[rs] {
				reach[rs] = true
				stack = append(stack, rs)
			}
		}
	}

	// Every reachable object must exist, intact.
	serials := make([]uint32, 0, len(reach))
	for ser := range reach {
		serials = append(serials, ser)
	}
	sort.Slice(serials, func(i, j int) bool { return serials[i] < serials[j] })
	for _, ser := range serials {
		a, ok := addrOf[ser]
		if !ok {
			return fmt.Errorf("vm: reachable object serial %d lost by the collector", ser)
		}
		mir := v.mirrors[ser]
		if got := sp.TypeOf(a); got != mir.t {
			return fmt.Errorf("vm: serial %d at %v: type %s, want %s", ser, a, got.Name, mir.t.Name)
		}
		if got := sp.Length(a); got != mir.length {
			return fmt.Errorf("vm: serial %d at %v: length %d, want %d", ser, a, got, mir.length)
		}
		for i, want := range mir.refs {
			ra := sp.GetRef(a, i)
			var got uint32
			if ra != heap.Nil {
				got = sp.Serial(ra)
			}
			if got != want {
				return fmt.Errorf("vm: serial %d at %v: ref slot %d is serial %d, want %d",
					ser, a, i, got, want)
			}
		}
		for i, want := range mir.data {
			if got := sp.GetData(a, i); got != want {
				return fmt.Errorf("vm: serial %d at %v: data word %d is %#x, want %#x",
					ser, a, i, got, want)
			}
		}
	}
	return nil
}

// LiveFingerprint renders the root-reachable object graph of the REAL
// heap (not the shadow) in a canonical, address-free form: objects are
// keyed by allocation serial — which is assigned by mutator operation
// order and therefore identical across collectors replaying the same
// trace — and listed sorted, each with its type, length, data words and
// outgoing reference serials. Two collectors preserve the same mutator
// semantics iff their fingerprints after replaying the same trace are
// equal; addresses, belt geometry, cost and telemetry never appear in
// the fingerprint. The differential oracle (internal/check) compares
// these across configurations, while the mirror-based Check compares
// each heap against its own shadow.
func (v *Validator) LiveFingerprint() string {
	sp := v.mut.C.Space()

	// Root serial multiset, in sorted order: the root table's handle
	// assignment is part of mutator-observable state (trace replay
	// asserts handle equality), so the roots' referents must agree too.
	var rootSerials []uint32
	var frontier []heap.Addr
	seen := make(map[uint32]heap.Addr)
	v.mut.roots.Walk(func(a heap.Addr) heap.Addr {
		rootSerials = append(rootSerials, sp.Serial(a))
		if ser := sp.Serial(a); seen[ser] == heap.Nil {
			seen[ser] = a
			frontier = append(frontier, a)
		}
		return a
	})
	for len(frontier) > 0 {
		a := frontier[len(frontier)-1]
		frontier = frontier[:len(frontier)-1]
		for i, n := 0, sp.NumRefs(a); i < n; i++ {
			ra := sp.GetRef(a, i)
			if ra == heap.Nil {
				continue
			}
			if ser := sp.Serial(ra); seen[ser] == heap.Nil {
				seen[ser] = ra
				frontier = append(frontier, ra)
			}
		}
	}

	serials := make([]uint32, 0, len(seen))
	for ser := range seen {
		serials = append(serials, ser)
	}
	sort.Slice(serials, func(i, j int) bool { return serials[i] < serials[j] })
	sort.Slice(rootSerials, func(i, j int) bool { return rootSerials[i] < rootSerials[j] })

	var b strings.Builder
	fmt.Fprintf(&b, "roots %v\n", rootSerials)
	for _, ser := range serials {
		a := seen[ser]
		fmt.Fprintf(&b, "#%d %s/%d", ser, sp.TypeOf(a).Name, sp.Length(a))
		if n := sp.NumRefs(a); n > 0 {
			b.WriteString(" r[")
			for i := 0; i < n; i++ {
				if i > 0 {
					b.WriteByte(' ')
				}
				if ra := sp.GetRef(a, i); ra != heap.Nil {
					fmt.Fprintf(&b, "%d", sp.Serial(ra))
				} else {
					b.WriteByte('_')
				}
			}
			b.WriteByte(']')
		}
		if n := sp.DataWords(a); n > 0 {
			b.WriteString(" d[")
			for i := 0; i < n; i++ {
				if i > 0 {
					b.WriteByte(' ')
				}
				fmt.Fprintf(&b, "%x", sp.GetData(a, i))
			}
			b.WriteByte(']')
		}
		b.WriteByte('\n')
	}
	return b.String()
}
