package trace

import (
	"bytes"
	"errors"
	"math/rand"
	"strings"
	"testing"

	"beltway/internal/collectors"
	"beltway/internal/core"
	"beltway/internal/gc"
	"beltway/internal/heap"
	"beltway/internal/vm"
	"beltway/internal/workload"
)

func newMutator(t *testing.T, cfg core.Config) *vm.Mutator {
	t.Helper()
	h, err := core.New(cfg, heap.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	return vm.New(h)
}

// record runs a scripted workload with recording attached and returns the
// trace and the mutator it ran on.
func record(t *testing.T, cfg core.Config) (*Trace, *vm.Mutator) {
	t.Helper()
	m := newMutator(t, cfg)
	tr := NewTrace()
	m.SetRecorder(tr)
	types := m.C.Space().Types
	node := types.DefineScalar("node", 2, 1)
	arr := types.DefineRefArray("arr")
	rng := rand.New(rand.NewSource(7))
	err := m.Run(func() {
		root := m.AllocGlobal(arr, 16)
		boot := m.AllocImmortal(node, 0)
		m.SetRef(boot, 0, root)
		for i := 0; i < 3000; i++ {
			m.Push()
			n := m.Alloc(node, 0)
			m.SetData(n, 0, uint32(i))
			m.SetRef(root, i%16, n)
			if rng.Intn(4) == 0 {
				got := m.GetRef(root, rng.Intn(16))
				if got != 0 && rng.Intn(2) == 0 {
					kept := m.Keep(got)
					m.Release(kept)
				}
			}
			if rng.Intn(16) == 0 {
				m.SetRefNil(root, rng.Intn(16))
			}
			if rng.Intn(4) == 0 && !m.RefIsNil(root, rng.Intn(16)) {
				m.Work(int(m.GetData(n, 0) % 3))
			}
			m.Work(3)
			m.Pop()
			if i == 1500 {
				m.Collect(false)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return tr, m
}

func smallCfg() core.Config {
	return collectors.XX100(25, collectors.Options{HeapBytes: 256 << 10, FrameBytes: 4096})
}

// sameRun fails unless a replay's clock is the recorded run's bit for
// bit: total time, GC time and every counter.
func sameRun(t *testing.T, what string, recorded, replayed *vm.Mutator) {
	t.Helper()
	w, g := recorded.C.Clock(), replayed.C.Clock()
	if g.TotalTime() != w.TotalTime() || g.GCTime() != w.GCTime() || g.Counters != w.Counters {
		t.Errorf("%s: replay differs from the run it was recorded from:\nreplayed total %v gc %v %+v\nrecorded total %v gc %v %+v",
			what, g.TotalTime(), g.GCTime(), g.Counters, w.TotalTime(), w.GCTime(), w.Counters)
	}
}

// TestReplayMatchesLiveRun records on one collector and replays on a
// fresh identical collector: every counter must match the recording run
// exactly.
func TestReplayMatchesLiveRun(t *testing.T) {
	tr, live := record(t, smallCfg())
	if tr.Len() == 0 {
		t.Fatal("empty trace")
	}
	// The script reaches every op the format has but the pretenured
	// allocation: a Mutator operation Replay did not repeat would go
	// unnoticed below if the script never made it.
	seen := map[byte]bool{}
	if err := decode(tr.buf, func(r *event) error { seen[r.code] = true; return nil }); err != nil {
		t.Fatal(err)
	}
	for code := opDefineType; code <= opRefIsNil; code++ {
		if !seen[code] && code != opAllocPretenured {
			t.Errorf("the scripted workload never emits op %d", code)
		}
	}
	m2 := newMutator(t, smallCfg())
	if err := Replay(tr, m2); err != nil {
		t.Fatalf("replay: %v", err)
	}
	sameRun(t, "scripted workload", live, m2)

	m3 := newMutator(t, smallCfg())
	tr3 := NewTrace()
	m3.SetRecorder(tr3)
	if err := Replay(tr, m3); err != nil {
		t.Fatalf("re-recording replay: %v", err)
	}
	// Replaying while re-recording must reproduce the identical trace.
	if !bytes.Equal(encoded(tr), encoded(tr3)) {
		t.Error("re-recorded trace differs from original")
	}
}

// TestReplayOnDifferentCollectors replays one trace against several
// configurations; mutator-side counters (allocation, stores) must agree
// even though collector-side behaviour differs.
func TestReplayOnDifferentCollectors(t *testing.T) {
	tr, _ := record(t, smallCfg())
	o := collectors.Options{HeapBytes: 256 << 10, FrameBytes: 4096}
	var allocs []uint64
	var collections []uint64
	for _, cfg := range []core.Config{
		collectors.BSS(o),
		collectors.XX(25, o),
		collectors.BOFM(25, o),
	} {
		h, err := core.New(cfg, heap.NewRegistry())
		if err != nil {
			t.Fatal(err)
		}
		m := vm.New(h)
		if err := Replay(tr, m); err != nil {
			t.Fatalf("%s: %v", cfg.Name, err)
		}
		allocs = append(allocs, h.Clock().Counters.BytesAllocated)
		collections = append(collections, h.Collections())
	}
	for i := 1; i < len(allocs); i++ {
		if allocs[i] != allocs[0] {
			t.Errorf("allocation volume differs across collectors: %v", allocs)
		}
	}
	// Different policies should actually behave differently somewhere.
	if collections[0] == collections[1] && collections[1] == collections[2] {
		t.Logf("note: all collectors performed %d collections", collections[0])
	}
}

// TestSerializeRoundTrip checks WriteTo/ReadFrom.
func TestSerializeRoundTrip(t *testing.T) {
	tr, _ := record(t, smallCfg())
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	tr2, err := ReadFrom(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encoded(tr), encoded(tr2)) {
		t.Error("round trip changed the trace")
	}
	m := newMutator(t, smallCfg())
	if err := Replay(tr2, m); err != nil {
		t.Fatalf("replay of deserialized trace: %v", err)
	}
}

// TestReadFromRejectsGarbage checks corrupt input handling.
func TestReadFromRejectsGarbage(t *testing.T) {
	if _, err := ReadFrom(bytes.NewReader([]byte{0xff})); err == nil {
		t.Error("truncated trace accepted")
	}
	if _, err := ReadFrom(bytes.NewReader(nil)); err == nil {
		t.Error("empty stream accepted")
	}
	// Valid header, garbage body: replay must error, not panic.
	var buf bytes.Buffer
	buf.WriteByte(2) // length 2
	buf.Write([]byte{0xee, 0xee})
	tr, err := ReadFrom(&buf)
	if err != nil {
		t.Fatal(err)
	}
	m := newMutator(t, smallCfg())
	if err := Replay(tr, m); err == nil {
		t.Error("garbage trace replayed without error")
	}
}

// TestRecordedRunsReplayExactly: replaying a benchmark's trace on a fresh
// heap configured as the recording's reproduces the recorded run's clock
// and counters bit for bit, for every benchmark of the suite on a
// boot-scanning and a remembered-set collector. A Mutator operation that
// charges the clock and is not recorded fails it on the benchmark that
// calls it (RefIsNil was one, on raytrace). Each run is in the smallest of
// three heaps it completes in, so it collects as often as it can.
func TestRecordedRunsReplayExactly(t *testing.T) {
	for _, b := range workload.All() {
		for _, spec := range []string{"appel", "25.25.100"} {
			name := b.Name + " on " + spec
			for _, heapBytes := range []int{512 << 10, 1 << 20, 2 << 20} {
				cfg, err := collectors.Parse(spec, collectors.Options{HeapBytes: heapBytes, FrameBytes: 2048})
				if err != nil {
					t.Fatal(err)
				}
				live := newMutator(t, cfg)
				tr := NewTrace()
				live.SetRecorder(tr)
				ctx := &workload.Ctx{M: live, Types: live.C.Space().Types, Rng: rand.New(rand.NewSource(1)), Scale: 0.1}
				err = live.Run(func() { b.Body(ctx) })
				if errors.Is(err, gc.ErrOutOfMemory) && heapBytes < 2<<20 {
					continue // try the next heap
				}
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if live.C.Clock().Counters.Collections == 0 {
					t.Fatalf("%s: the recorded run never collected", name)
				}
				replayed := newMutator(t, cfg)
				if err := Replay(tr, replayed); err != nil {
					t.Fatalf("%s: replay: %v", name, err)
				}
				sameRun(t, name, live, replayed)
				break
			}
		}
	}
}

// TestHugeTypeNameLengthIsABadRecord: a type record whose name length is
// 2^63 or more is a bad record to every decoder, not a negative length
// that slips past the bounds check; so is an allocation whose type index
// is.
func TestHugeTypeNameLengthIsABadRecord(t *testing.T) {
	tr := &Trace{}
	tr.emit(opDefineType, uint64(heap.Scalar), 1, 1, 1<<63)
	tr.buf = append(tr.buf, 'n')
	if _, err := tr.NumOps(); err == nil {
		t.Error("NumOps accepted the record")
	}
	if _, err := tr.AllocBytes(); err == nil {
		t.Error("AllocBytes accepted the record")
	}
	if err := Replay(tr, newMutator(t, smallCfg())); err == nil {
		t.Error("Replay accepted the record")
	}

	// The same for an allocation's type index.
	tr = &Trace{}
	tr.emit(opDefineType, uint64(heap.Scalar), 1, 1, 1)
	tr.buf = append(tr.buf, 'n')
	tr.emit(opAlloc, 1<<63, 0, 1)
	if _, err := tr.AllocBytes(); err == nil {
		t.Error("AllocBytes accepted an allocation of type 2^63")
	}
	if err := Replay(tr, newMutator(t, smallCfg())); err == nil {
		t.Error("Replay accepted an allocation of type 2^63")
	}
}

// TestUnknownKindIsABadRecord: a type record whose kind is past
// WordArray names no layout. AllocBytes and Replay answer it as the bad
// type record it is, before any allocation of the type is sized or any
// type is defined.
func TestUnknownKindIsABadRecord(t *testing.T) {
	for _, kind := range []uint64{uint64(heap.WordArray) + 1, 255, 1 << 63} {
		tr := &Trace{}
		tr.emit(opDefineType, kind, 0, 0, 1)
		tr.buf = append(tr.buf, 'n')
		tr.emit(opAlloc, 1, 4, 1)
		if _, err := tr.AllocBytes(); err == nil || !strings.HasPrefix(err.Error(), "trace: bad type record") {
			t.Errorf("kind %d: AllocBytes = %v, want a bad type record", kind, err)
		}
		m := newMutator(t, smallCfg())
		if err := Replay(tr, m); err == nil || !strings.HasPrefix(err.Error(), "trace: bad type record") {
			t.Errorf("kind %d: Replay = %v, want a bad type record", kind, err)
		}
		if n := m.C.Space().Types.Len(); n != 0 {
			t.Errorf("kind %d: Replay defined %d types", kind, n)
		}
	}
}

// encoded exposes the raw bytes for comparison.
func encoded(tr *Trace) []byte {
	var buf bytes.Buffer
	tr.WriteTo(&buf)
	return buf.Bytes()
}
