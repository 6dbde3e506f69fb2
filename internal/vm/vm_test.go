package vm_test

import (
	"testing"

	"beltway/internal/collectors"
	"beltway/internal/core"
	"beltway/internal/gc"
	"beltway/internal/heap"
	"beltway/internal/vm"
)

func testMutator(t *testing.T) (*vm.Mutator, *heap.Registry) {
	t.Helper()
	types := heap.NewRegistry()
	cfg := collectors.XX100(25, core.Options{HeapBytes: 1 << 20, FrameBytes: 8192})
	h, err := core.New(cfg, types)
	if err != nil {
		t.Fatal(err)
	}
	return vm.New(h), types
}

func TestAllocAndFieldAccess(t *testing.T) {
	m, types := testMutator(t)
	node := types.DefineScalar("n", 2, 3)
	arr := types.DefineRefArray("a")
	err := m.Run(func() {
		n := m.Alloc(node, 0)
		a := m.Alloc(arr, 5)
		m.SetData(n, 0, 7)
		m.SetData(n, 2, 9)
		m.SetRef(n, 0, a)
		m.SetRef(a, 3, n)
		if m.GetData(n, 0) != 7 || m.GetData(n, 2) != 9 {
			t.Error("data round trip failed")
		}
		if m.Length(a) != 5 {
			t.Error("Length wrong")
		}
		if m.TypeOf(n) != node || m.TypeOf(a) != arr {
			t.Error("TypeOf wrong")
		}
		got := m.GetRef(a, 3)
		if !m.SameObject(got, n) {
			t.Error("GetRef/SameObject mismatch")
		}
		if m.RefIsNil(a, 0) != true || m.RefIsNil(a, 3) != false {
			t.Error("RefIsNil wrong")
		}
		m.SetRefNil(n, 0)
		if !m.RefIsNil(n, 0) {
			t.Error("SetRefNil did not clear")
		}
		if m.Serial(n) == 0 || m.Serial(n) == m.Serial(a) {
			t.Error("serials must be unique and nonzero")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// Every accessor takes its receiver through addrOf, whose panic is raised
// inline so that addrOf itself inlines: each must still name itself in
// the message, word for word, and panic with a string. A live receiver
// must not panic at all.
func TestNilDereferencePanics(t *testing.T) {
	m, types := testMutator(t)
	node := types.DefineScalar("n", 1, 1)
	live := m.AllocGlobal(node, 0)
	cases := []struct {
		op     string
		access func(obj gc.Handle)
	}{
		{"SetRef", func(obj gc.Handle) { m.SetRef(obj, 0, live) }},
		{"SetRefNil", func(obj gc.Handle) { m.SetRefNil(obj, 0) }},
		{"GetRef", func(obj gc.Handle) { m.GetRef(obj, 0) }},
		{"RefIsNil", func(obj gc.Handle) { m.RefIsNil(obj, 0) }},
		{"SetData", func(obj gc.Handle) { m.SetData(obj, 0, 1) }},
		{"GetData", func(obj gc.Handle) { m.GetData(obj, 0) }},
		{"Length", func(obj gc.Handle) { m.Length(obj) }},
		{"TypeOf", func(obj gc.Handle) { m.TypeOf(obj) }},
		{"Serial", func(obj gc.Handle) { m.Serial(obj) }},
	}
	panicOf := func(fn func()) (r any) {
		defer func() { r = recover() }()
		fn()
		return nil
	}
	for _, tc := range cases {
		want := "vm: nil dereference (" + tc.op + " receiver)"
		if got, _ := panicOf(func() { tc.access(gc.NilHandle) }).(string); got != want {
			t.Errorf("%s on a nil receiver panics %q, want the string %q", tc.op, got, want)
		}
		if r := panicOf(func() { tc.access(live) }); r != nil {
			t.Errorf("%s on a live receiver panics: %v", tc.op, r)
		}
	}
	// A nil VALUE is not a dereference: storing NilHandle clears the slot.
	if r := panicOf(func() { m.SetRef(live, 0, gc.NilHandle) }); r != nil || !m.RefIsNil(live, 0) {
		t.Errorf("SetRef of a nil value: panic %v, slot nil %v", r, m.RefIsNil(live, 0))
	}
}

func TestRunConvertsOOM(t *testing.T) {
	types := heap.NewRegistry()
	cfg := collectors.BSS(core.Options{HeapBytes: 64 * 1024, FrameBytes: 4096})
	h, err := core.New(cfg, types)
	if err != nil {
		t.Fatal(err)
	}
	m := vm.New(h)
	big := types.DefineWordArray("big")
	err = m.Run(func() {
		for {
			m.AllocGlobal(big, 200)
		}
	})
	if err == nil {
		t.Fatal("unbounded allocation did not fail")
	}
}

func TestRunPassesThroughOtherPanics(t *testing.T) {
	m, _ := testMutator(t)
	defer func() {
		if recover() == nil {
			t.Fatal("non-OOM panic swallowed by Run")
		}
	}()
	m.Run(func() { panic("boom") })
}

func TestKeepEscapesScope(t *testing.T) {
	m, types := testMutator(t)
	node := types.DefineScalar("n", 0, 1)
	err := m.Run(func() {
		var kept gc.Handle
		m.Push()
		tmp := m.Alloc(node, 0)
		m.SetData(tmp, 0, 99)
		kept = m.Keep(tmp)
		m.Pop()
		// tmp's handle is dead, kept must still work after a full GC.
		m.Collect(true)
		if m.GetData(kept, 0) != 99 {
			t.Error("kept object lost")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestValidatorCatchesCorruption(t *testing.T) {
	// Sabotage the heap behind the validator's back; Check must fail.
	types := heap.NewRegistry()
	cfg := collectors.XX100(25, core.Options{HeapBytes: 1 << 20, FrameBytes: 8192})
	h, err := core.New(cfg, types)
	if err != nil {
		t.Fatal(err)
	}
	m := vm.New(h)
	v := m.EnableValidation()
	v.PanicOnFailure = false
	node := types.DefineScalar("n", 1, 1)
	err = m.Run(func() {
		a := m.Alloc(node, 0)
		m.SetData(a, 0, 5)
		if err := v.Check(); err != nil {
			t.Fatalf("clean heap failed validation: %v", err)
		}
		// Corrupt the data word directly, bypassing the mutator.
		addr := h.Roots().Get(a)
		h.Space().SetData(addr, 0, 6)
		if err := v.Check(); err == nil {
			t.Error("validator missed data corruption")
		}
		h.Space().SetData(addr, 0, 5) // restore
		// Corrupt a reference similarly.
		b := m.Alloc(node, 0)
		m.SetRef(a, 0, b)
		h.Space().SetRef(addr, 0, heap.Nil)
		if err := v.Check(); err == nil {
			t.Error("validator missed reference corruption")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestWorkAdvancesClock(t *testing.T) {
	m, _ := testMutator(t)
	before := m.C.Clock().Now()
	m.Work(100)
	if m.C.Clock().Now() <= before {
		t.Error("Work did not advance the clock")
	}
}
