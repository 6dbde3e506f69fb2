package engine

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"io/fs"
	"os"
)

// LoadCheckpoint reads a JSONL record file and returns the last record
// per key. A missing file yields an empty map (a fresh resume is just a
// run). Unparsable lines — in particular a partial final line from a run
// killed mid-write — are skipped rather than treated as corruption, so a
// checkpoint is always usable up to its last complete record.
func LoadCheckpoint(path string) (map[string]Record, error) {
	f, err := os.Open(path)
	if errors.Is(err, fs.ErrNotExist) {
		return map[string]Record{}, nil
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]Record{}
	lines := NewLineReader(f)
	for {
		line, rerr := lines.Next()
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
