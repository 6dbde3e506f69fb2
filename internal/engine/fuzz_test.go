package engine

import (
	"bytes"
	"encoding/json"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// allocatedBy is the bytes f allocates on the Go heap.
func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// writtenCheckpoint is the file an engine leaves after running a
// completed, an errored and a structured job.
func writtenCheckpoint(f *testing.F) []byte {
	path := filepath.Join(f.TempDir(), "ck.jsonl")
	e := New(Config{Workers: 1, Checkpoint: path})
	jobs := []Job{
		intJob("a", 1),
		{Key: Key{Experiment: "test", Collector: "Appel", Benchmark: "b", HeapBytes: 1 << 20},
			Run: func() (any, Outcome, error) { return nil, "", errors.New("out of memory") }},
		{Key: Key{Experiment: "test", Benchmark: "c"},
			Run: func() (any, Outcome, error) { return map[string][]float64{"pauses": {1.5, 2}}, OK, nil }},
	}
	if _, err := e.Run(jobs); err != nil {
		f.Fatal(err)
	}
	if err := e.Close(); err != nil {
		f.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	return raw
}

// FuzzLoadCheckpoint: whatever bytes a checkpoint file holds,
// LoadCheckpoint answers with records or a typed error, never a panic,
// and allocates in proportion to the file, not to what a line claims.
// Every record it returns is filed under its own key.
func FuzzLoadCheckpoint(f *testing.F) {
	written := writtenCheckpoint(f)
	f.Add(written)
	f.Add(written[:len(written)-5])                                      // killed mid-write
	f.Add(append(append([]byte(nil), written...), "!!\n[1,2]\n{}\n"...)) // garbage after
	f.Add([]byte(`{"key":{"benchmark":"x"},"payload":[[[[[[[[[[]]]]]]]]]],"attempts":1e999}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "ck.jsonl")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		var recs map[string]Record
		var err error
		allocated := allocatedBy(func() { recs, err = LoadCheckpoint(path) })
		if err != nil {
			if pe := (*fs.PathError)(nil); !errors.As(err, &pe) {
				t.Fatalf("an error that is not a file error: %v", err)
			}
			return
		}
		if lines := bytes.Count(data, []byte("\n")) + 1; len(recs) > lines {
			t.Errorf("%d records from %d lines", len(recs), lines)
		}
		for k, rec := range recs {
			if rec.Key.String() != k {
				t.Errorf("record %s filed under %q", rec.Key, k)
			}
		}
		// The read buffer, then linear in the input: a line is read,
		// unmarshaled and its strings and payload copied once each.
		if limit := 1<<20 + 64*uint64(len(data)); allocated > limit {
			t.Errorf("%d bytes of checkpoint allocated %d bytes (limit %d)", len(data), allocated, limit)
		}
	})
}

// requestStream is what a pool writes to a worker's stdin for reqs, as
// a file the test writes and reads back.
func requestStream(f *testing.F, reqs ...string) []byte {
	path := filepath.Join(f.TempDir(), "stdin")
	file, err := os.Create(path)
	if err != nil {
		f.Fatal(err)
	}
	w := newWorkerProc(0, nil, file, nil)
	for _, r := range reqs {
		if _, err := w.request(json.RawMessage(r)); err != nil {
			f.Fatal(err)
		}
		if _, err := w.in.Write(w.frame.Bytes()); err != nil {
			f.Fatal(err)
		}
	}
	if err := file.Close(); err != nil {
		f.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	return raw
}

// fuzzHandle answers a request with itself, a handler error, or a
// response that does not marshal.
func fuzzHandle(req json.RawMessage) (json.RawMessage, error) {
	switch {
	case bytes.HasPrefix(req, []byte(`"err`)):
		return nil, errors.New("handler failure")
	case bytes.HasPrefix(req, []byte(`"bad`)):
		return json.RawMessage(`{"unterminated`), nil
	}
	return req, nil
}

// FuzzServeProc: whatever a worker reads on stdin, ServeProc returns nil
// or an error, never panics, and writes nothing but well-formed response
// lines — each a procResponse as json.Marshal renders it, one for at most
// every request line.
func FuzzServeProc(f *testing.F) {
	stream := requestStream(f, `"a"`, `{"spec":[1,2,{"x":"<&>"}]}`, `"err"`, `null`, `"bad"`, `"b"`)
	f.Add(stream)
	f.Add(stream[:len(stream)-4])                           // the orchestrator died mid-write
	f.Add(append([]byte("\n  \n"), stream...))              // blank lines
	f.Add(append(append([]byte(nil), stream...), "{\n"...)) // garbage after
	f.Add([]byte(`{"id":1e999,"req":[[[[]]]]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var out bytes.Buffer
		ServeProc(bytes.NewReader(data), &out, fuzzHandle)
		if out.Len() > 0 && out.Bytes()[out.Len()-1] != '\n' {
			t.Fatalf("a response line without its newline: %q", out.Bytes())
		}
		responses := bytes.SplitAfter(out.Bytes(), []byte("\n"))
		responses = responses[:len(responses)-1]
		if requests := bytes.Count(data, []byte("\n")) + 1; len(responses) > requests {
			t.Errorf("%d responses to %d lines", len(responses), requests)
		}
		for _, line := range responses {
			dec := json.NewDecoder(bytes.NewReader(line))
			dec.DisallowUnknownFields()
			var resp procResponse
			if err := dec.Decode(&resp); err != nil {
				t.Fatalf("response line %q: %v", line, err)
			}
			if again, err := json.Marshal(resp); err != nil || string(again)+"\n" != string(line) {
				t.Errorf("response line %q is not json.Marshal of what it decodes to (%q)", line, again)
			}
		}
	})
}
