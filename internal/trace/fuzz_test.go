package trace_test

import (
	"bytes"
	"encoding/base64"
	"encoding/binary"
	"runtime"
	"strings"
	"testing"

	"beltway/internal/check"
	"beltway/internal/collectors"
	"beltway/internal/core"
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

// FuzzTraceBytes: whatever bytes arrive, ReadFrom and the decoders behind
// NumOps, AllocBytes and Slice answer with a trace or a trace error, never
// a panic, and allocate in proportion to the bytes that arrived, not to
// what a header or a record claims.
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
	// both as bad type records. The bytes are the size header, then
	// define-type (op 1: kind, refs, words, name length, name) and alloc
	// (op 2: type, length, handle).
	for _, body := range [][]byte{
		{1, 3, 0, 0, 1, 'n', 2, 1, 4, 1},
		{1, 0xff, 0x01, 0, 0, 1, 'n'},
	} {
		f.Add(append(binary.AppendUvarint(nil, uint64(len(body))), body...))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var errs []error
		allocated := allocatedBy(func() {
			tr, err := trace.ReadFrom(bytes.NewReader(data))
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
		// Linear in the input: a one-byte op decodes to a 48-byte record in
		// a growing slice, and NumOps, AllocBytes and Slice each decode.
		if limit := 1<<20 + 4<<10*uint64(len(data)); allocated > limit {
			t.Errorf("%d bytes of input allocated %d bytes (limit %d)", len(data), allocated, limit)
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
