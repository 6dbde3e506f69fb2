package engine

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestRecordPayloadIsJSONMarshal: whatever a job returns, its record's
// payload is json.Marshal(payload) and its checkpoint line is
// json.Marshal(record) and a newline — a pre-marshaled payload in that
// form is the same bytes, not a copy, one that is not is re-encoded, and
// an invalid one fails the job as json.Marshal fails.
func TestRecordPayloadIsJSONMarshal(t *testing.T) {
	payloads := map[string]any{
		"compact":          json.RawMessage(`{"a":1,"s":"x y","t":[true,null,"\" \\"]}`),
		"whitespace":       json.RawMessage("{ \"a\" : [1, 2]\n}\n"),
		"html":             json.RawMessage(`{"s":"<b>&amp;</b>"}`),
		"line separator":   json.RawMessage("{\"s\":\"a\u2028b\u2029\"}"),
		"nil":              json.RawMessage(nil),
		"empty":            json.RawMessage{},
		"invalid":          json.RawMessage(`{"a":`),
		"trailing garbage": json.RawMessage(`[1,2]x`),
		"not raw":          map[string][]float64{"pauses": {1.5, 2}},
	}
	path := filepath.Join(t.TempDir(), "ck.jsonl")
	e := New(Config{Workers: 2, Checkpoint: path})
	var jobs []Job
	for name, p := range payloads {
		jobs = append(jobs, Job{Key: Key{Benchmark: name},
			Run: func() (any, Outcome, error) { return p, OK, nil }})
	}
	recs, err := e.Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	lines := map[string]bool{}
	for _, rec := range recs {
		want, merr := json.Marshal(payloads[rec.Key.Benchmark])
		switch {
		case merr != nil:
			if rec.Outcome != Errored || rec.Error != "payload: "+merr.Error() {
				t.Errorf("%s: outcome %s %q, json.Marshal fails with %q", rec.Key.Benchmark, rec.Outcome, rec.Error, merr)
			}
		case rec.Outcome != OK || !bytes.Equal(rec.Payload, want):
			t.Errorf("%s: payload %q (%s), json.Marshal gives %q", rec.Key.Benchmark, rec.Payload, rec.Outcome, want)
		default:
			// Bytes already as json.Marshal gives them are not copied.
			raw, ok := payloads[rec.Key.Benchmark].(json.RawMessage)
			if ok && bytes.Equal(raw, want) && &rec.Payload[0] != &raw[0] {
				t.Errorf("%s: a payload json.Marshal leaves as it is was copied", rec.Key.Benchmark)
			}
		}
		line, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		lines[string(line)+"\n"] = true
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got := strings.SplitAfter(string(raw), "\n")
	if got[len(got)-1] == "" {
		got = got[:len(got)-1]
	}
	if len(got) != len(recs) {
		t.Fatalf("%d checkpoint lines for %d records", len(got), len(recs))
	}
	for _, line := range got {
		// DurationMS is in both, so each line is one record's exactly.
		if !lines[line] {
			t.Errorf("checkpoint line %q is not json.Marshal of any record", line)
		}
	}
}

// TestOneJobCopiesItsPayloadAtMostOnce: a pre-marshaled payload becomes
// the record's as is, and checkpointing the record copies it once (into
// the engine's line buffer), so a steady-state job allocates less than a
// second payload. json.Marshal in execute and again in commit, and the
// newline appended to its line, made three copies.
func TestOneJobCopiesItsPayloadAtMostOnce(t *testing.T) {
	payload := json.RawMessage(`{"pauses":[` + strings.Repeat("1.5,", 1<<16) + `2]}`)
	e := New(Config{Workers: 1, Checkpoint: filepath.Join(t.TempDir(), "ck.jsonl")})
	defer e.Close()
	if err := e.init(); err != nil {
		t.Fatal(err)
	}
	job := Job{Key: Key{Benchmark: "b"}, Run: func() (any, Outcome, error) { return payload, OK, nil }}
	// The least over several jobs: the first grows the line buffer, and
	// json.Encoder's scratch comes from a sync.Pool, which the race
	// detector empties at random.
	least := uint64(math.MaxUint64)
	for i := 0; i < 8; i++ {
		var rec Record
		var err error
		allocated := allocatedBy(func() {
			rec = e.execute(job)
			err = e.commit(rec)
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(rec.Payload) == 0 || &rec.Payload[0] != &payload[0] {
			t.Fatal("the record's payload is a copy of the job's")
		}
		least = min(least, allocated)
	}
	t.Logf("a %d-byte payload: %d bytes allocated per job", len(payload), least)
	if least >= uint64(len(payload)) {
		t.Errorf("a job with a %d-byte payload allocates %d bytes: more than one copy", len(payload), least)
	}
}

// loadCheckpointReadBytes is LoadCheckpoint as it was when it read each
// line with bufio.Reader.ReadBytes, kept as the reference the line
// reader is held to.
func loadCheckpointReadBytes(path string) (map[string]Record, error) {
	f, err := os.Open(path)
	if errors.Is(err, fs.ErrNotExist) {
		return map[string]Record{}, nil
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]Record{}
	r := bufio.NewReaderSize(f, 1<<16)
	for {
		line, rerr := r.ReadBytes('\n')
		if trimmed := bytes.TrimSpace(line); len(trimmed) > 0 {
			var rec Record
			if jerr := json.Unmarshal(trimmed, &rec); jerr == nil {
				out[rec.Key.String()] = rec
			}
		}
		if rerr == io.EOF {
			return out, nil
		}
		if rerr != nil {
			return nil, rerr
		}
	}
}

// TestLoadCheckpointMatchesReadBytes holds LoadCheckpoint to the
// ReadBytes reader on lines longer than the read buffer, blank lines, a
// final line without a newline and a torn tail.
func TestLoadCheckpointMatchesReadBytes(t *testing.T) {
	huge := recLine(t, "huge", strings.Repeat("x", 3<<16))
	hugeToo := recLine(t, "huge", strings.Repeat("y", 1<<16-40)) // ends near the buffer's end
	files := map[string][]string{
		"long lines":       {recLine(t, "a", 1), huge, recLine(t, "b", 2), hugeToo, huge},
		"blank lines":      {"", recLine(t, "a", 1), "  ", "", recLine(t, "b", 2), "\t", ""},
		"no final newline": {recLine(t, "a", 1), recLine(t, "b", 2)},
		"torn tail":        {recLine(t, "a", 1), huge, huge[:len(huge)-3]},
		"torn long line":   {recLine(t, "a", 1), huge[:1<<16+7]},
		"empty":            {""},
	}
	for name, lines := range files {
		t.Run(name, func(t *testing.T) {
			path := writeCheckpointLines(t, lines...)
			want, werr := loadCheckpointReadBytes(path)
			got, gerr := LoadCheckpoint(path)
			if (werr == nil) != (gerr == nil) || !reflect.DeepEqual(got, want) {
				t.Errorf("LoadCheckpoint gives %d records (%v), the ReadBytes reader %d (%v)", len(got), gerr, len(want), werr)
			}
		})
	}
}
