package trace_test

import (
	"bytes"
	"encoding/base64"
	"encoding/binary"
	"errors"
	"runtime"
	"strings"
	"testing"

	"beltway/internal/check"
	"beltway/internal/collectors"
	"beltway/internal/core"
	"beltway/internal/gc"
	"beltway/internal/heap"
	"beltway/internal/trace"
	"beltway/internal/vm"
	"beltway/internal/workload"
)

// allocatedBy is the bytes f allocates on the Go heap.
func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// fixtureTraces are the serialized traces of the committed oracle
// fixtures: a fixture's trace_b64 where it has one, else the trace its
// script records on the fixture's first configuration.
func fixtureTraces(f *testing.F) [][]byte {
	fixtures, err := check.LoadFixtures("../check/testdata")
	if err != nil {
		f.Fatal(err)
	}
	var out [][]byte
	for _, fx := range fixtures {
		if fx.TraceB64 != "" {
			raw, err := base64.StdEncoding.DecodeString(fx.TraceB64)
			if err != nil {
				f.Fatalf("%s: %v", fx.Name, err)
			}
			out = append(out, raw)
			continue
		}
		h, err := core.New(fx.Configs[0], heap.NewRegistry())
		if err != nil {
			f.Fatalf("%s: %v", fx.Name, err)
		}
		m := vm.New(h)
		tr := trace.NewTrace()
		m.SetRecorder(tr)
		m.Run(func() { check.Execute(fx.Script, m) }) // out of memory leaves a trace of the ops before it
		out = append(out, serialize(f, tr))
	}
	return out
}

func serialize(tb testing.TB, tr *trace.Trace) []byte {
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// corruptTraces are the bodies of traces that ReadFrom accepts, each
// wrong in one way. Ops: 1 define-type (kind, refs, words, name length,
// name), 2 alloc (type, length, handle), 5 set-ref (object, slot,
// value), 9 pop, 10 set-data (object, word, value), 12 work (units).
// static marks the traces the decoder itself refuses, so NumOps,
// AllocBytes and Slice refuse them too; the rest are refused by replay,
// which reads the object's header.
var corruptTraces = []struct {
	name   string
	body   []byte
	static bool
}{
	{"set-data on handle 48, never rooted", []byte{10, '0', '0', '0'}, true},
	{"set-data at word 5 of a 1-ref scalar", []byte{1, 0, 1, 0, 1, 'n', 2, 1, 0, 1, 10, 1, 5, 7}, false},
	{"set-ref at slot 3 of a 1-ref scalar", []byte{1, 0, 1, 0, 1, 'n', 2, 1, 0, 1, 5, 1, 3, 1}, false},
	{"pop with no push", []byte{9}, true},
	{"scalar allocated with length 48", []byte{1, 0, 1, 0, 1, 'n', 2, 1, 48, 1}, true},
	{"array type with a ref slot", []byte{1, 1, 1, 0, 1, 'a', 2, 1, 4, 1}, true},
	{"type name redefined with another shape",
		[]byte{1, 0, 1, 0, 1, 'n', 1, 0, 3, 0, 1, 'n', 2, 2, 0, 1, 5, 1, 2, 1}, true},
	{"work of 2^63 units, negative as an int", binary.AppendUvarint([]byte{12}, 1<<63), true},
}

// withHeader is body behind its size header, as WriteTo writes it.
func withHeader(body []byte) []byte {
	return append(binary.AppendUvarint(nil, uint64(len(body))), body...)
}

// replayFresh replays tr on a small fresh heap, released afterwards.
func replayFresh(tb testing.TB, tr *trace.Trace) error {
	h, err := core.New(collectors.XX100(25, collectors.Options{HeapBytes: 256 << 10, FrameBytes: 4096}), heap.NewRegistry())
	if err != nil {
		tb.Fatal(err)
	}
	defer h.Release()
	return trace.Replay(tr, vm.New(h))
}

// replayMayReturn reports whether err is one Replay may return:
// the trace's own, or the collector's refusal of an allocation (out of
// memory, or an object larger than its frames), as a live run gets it.
func replayMayReturn(err error) bool {
	return err == nil || errors.Is(err, gc.ErrOutOfMemory) ||
		strings.HasPrefix(err.Error(), "trace: ") || strings.HasPrefix(err.Error(), "core: ")
}

// TestReplayRejectsCorruptTraces: each corrupt trace replays to a trace
// error, not a panic, and the decoding calls refuse exactly the traces
// that are malformed in themselves.
func TestReplayRejectsCorruptTraces(t *testing.T) {
	for _, tc := range corruptTraces {
		t.Run(tc.name, func(t *testing.T) {
			tr, err := trace.ReadFrom(bytes.NewReader(withHeader(tc.body)))
			if err != nil {
				t.Fatal(err)
			}
			if err := replayFresh(t, tr); err == nil || !strings.HasPrefix(err.Error(), "trace: ") {
				t.Errorf("Replay = %v, want a trace error", err)
			}
			_, numErr := tr.NumOps()
			_, bytesErr := tr.AllocBytes()
			_, sliceErr := tr.Slice(func(int) bool { return true })
			for call, err := range map[string]error{"NumOps": numErr, "AllocBytes": bytesErr, "Slice": sliceErr} {
				if (err != nil) != tc.static {
					t.Errorf("%s = %v; the trace is malformed in itself: %v", call, err, tc.static)
				}
			}
		})
	}
}

// FuzzTraceBytes: whatever bytes arrive, ReadFrom and the decoders behind
// NumOps, AllocBytes and Slice answer with a trace or a trace error, never
// a panic, and allocate in proportion to the bytes that arrived, not to
// what a header or a record claims. Replay on a fresh heap answers every
// trace ReadFrom accepts with nil, a trace error or the collector's, and
// never a panic.
func FuzzTraceBytes(f *testing.F) {
	for _, seed := range fixtureTraces(f) {
		f.Add(seed)
	}
	jess, err := check.RecordWorkload(workload.Jess(), 0.001, 1,
		collectors.XX100(25, collectors.Options{HeapBytes: 1 << 20, FrameBytes: 8192}))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(serialize(f, jess))
	// A type record of kind 3 (one past WordArray) followed by an
	// allocation of it, and one of kind 255 alone: AllocBytes must refuse
	// both as bad type records.
	for _, body := range [][]byte{
		{1, 3, 0, 0, 1, 'n', 2, 1, 4, 1},
		{1, 0xff, 0x01, 0, 0, 1, 'n'},
	} {
		f.Add(withHeader(body))
	}
	for _, tc := range corruptTraces {
		f.Add(withHeader(tc.body))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var tr *trace.Trace
		var errs []error
		allocated := allocatedBy(func() {
			var err error
			tr, err = trace.ReadFrom(bytes.NewReader(data))
			if errs = append(errs, err); err != nil {
				return
			}
			_, err = tr.NumOps()
			errs = append(errs, err)
			_, err = tr.AllocBytes()
			errs = append(errs, err)
			_, err = tr.Slice(func(int) bool { return true })
			errs = append(errs, err)
		})
		for _, err := range errs {
			if err != nil && !strings.HasPrefix(err.Error(), "trace: ") {
				t.Errorf("an error that is not the trace's: %v", err)
			}
		}
		// Linear in the input: a decode grows its root table by at most a
		// slot per op, and Slice writes a trace no longer than its input.
		if limit := 1<<20 + 4<<10*uint64(len(data)); allocated > limit {
			t.Errorf("%d bytes of input allocated %d bytes (limit %d)", len(data), allocated, limit)
		}
		if tr == nil {
			return
		}
		if err := replayFresh(t, tr); !replayMayReturn(err) {
			t.Errorf("Replay = %v, an error that is neither the trace's nor the collector's", err)
		}
	})
}

// TestReadFromBoundsTheHeader: the size in a trace's header is untrusted.
// A header claiming more bytes than follow is a truncated trace, and
// reading it allocates what arrived, not what the header claimed.
func TestReadFromBoundsTheHeader(t *testing.T) {
	for _, tc := range []struct {
		name string
		in   []byte
	}{
		{"2^64-1 bytes in a 10-byte header", binary.AppendUvarint(nil, 1<<64-1)},
		{"64 GiB in a 6-byte header", binary.AppendUvarint(nil, 64<<30)},
		{"64 GiB, three of them sent", append(binary.AppendUvarint(nil, 64<<30), 1, 2, 3)},
	} {
		var err error
		allocated := allocatedBy(func() { _, err = trace.ReadFrom(bytes.NewReader(tc.in)) })
		if err == nil || !strings.Contains(err.Error(), "trace: truncated") {
			t.Errorf("%s: ReadFrom = %v, want a truncated trace", tc.name, err)
		}
		if allocated > 1<<20 {
			t.Errorf("%s: ReadFrom allocated %d bytes for %d bytes of input", tc.name, allocated, len(tc.in))
		}
	}
}
