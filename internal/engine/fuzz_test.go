package engine

import (
	"bytes"
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
