package farm

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// writeLedger appends n test entries to a new ledger at path and returns
// the file's bytes.
func writeLedger(t testing.TB, path string, n int) []byte {
	t.Helper()
	l, _, err := OpenLedger(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := l.Append(testEntry(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestOpenLedgerRefusesBrokenChain: a ledger whose lines all parse but
// whose chain does not verify is corruption, and reopening it refuses —
// leaving the file as it was — instead of appending onto it.
func TestOpenLedgerRefusesBrokenChain(t *testing.T) {
	path := filepath.Join(t.TempDir(), LedgerFile)
	data := writeLedger(t, path, 2)
	edited := strings.Replace(string(data), fmt.Sprintf(`"heap_bytes":%d`, testEntry(0).Spec.HeapBytes), `"heap_bytes":1`, 1)
	if edited == string(data) {
		t.Fatal("the edit did not change the ledger")
	}
	if err := os.WriteFile(path, []byte(edited), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadLedger(path); err == nil || !strings.Contains(err.Error(), "hash mismatch") {
		t.Fatalf("ReadLedger: %v, want a hash mismatch", err)
	}
	// The intact entries before a torn tail are verified too.
	for name, content := range map[string]string{
		"edited entry":                 edited,
		"edited entry, then torn tail": edited + `{"index":2,"prev_ha`,
	} {
		t.Run(name, func(t *testing.T) {
			if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
				t.Fatal(err)
			}
			l, _, err := OpenLedger(path)
			if err == nil {
				l.Append(testEntry(2))
				l.Close()
				t.Fatal("OpenLedger resumed a ledger whose chain does not verify")
			}
			if !strings.Contains(err.Error(), "hash mismatch") {
				t.Errorf("OpenLedger: %v, want the hash mismatch ReadLedger reports", err)
			}
			if after, _ := os.ReadFile(path); string(after) != content {
				t.Error("OpenLedger changed a ledger it refused")
			}
		})
	}
}

// readEntriesReadBytes is readEntries as it was when it read each line
// with bufio.Reader.ReadBytes, kept as the reference the line reader is
// held to.
func readEntriesReadBytes(path string, allowTorn bool) ([]Entry, int, error) {
	f, err := os.Open(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, -1, nil
	}
	if err != nil {
		return nil, -1, err
	}
	defer f.Close()
	var entries []Entry
	r := bufio.NewReaderSize(f, 1<<16)
	offset := 0
	for lineNo := 1; ; lineNo++ {
		line, rerr := r.ReadBytes('\n')
		trimmed := bytes.TrimSpace(line)
		if len(trimmed) > 0 {
			var e Entry
			if jerr := json.Unmarshal(trimmed, &e); jerr != nil {
				atEOF := rerr == io.EOF
				if !atEOF {
					// Peek: is anything non-blank left? If so the bad line is
					// mid-file corruption even in torn-tolerant mode.
					rest, _ := io.ReadAll(r)
					atEOF = len(bytes.TrimSpace(rest)) == 0
				}
				if allowTorn && atEOF {
					return entries, offset, nil
				}
				return nil, -1, fmt.Errorf("farm: %s line %d: unparsable ledger entry: %v", path, lineNo, jerr)
			}
			entries = append(entries, e)
		}
		offset += len(line)
		if rerr == io.EOF {
			return entries, -1, nil
		}
		if rerr != nil {
			return nil, -1, rerr
		}
	}
}

// TestReadEntriesMatchesReadBytes holds readEntries to the ReadBytes
// reader, torn-tolerant and strict: the same entries, torn-tail offset and
// error on lines longer than the read buffer, blank lines, a final line
// without a newline and a torn tail.
func TestReadEntriesMatchesReadBytes(t *testing.T) {
	dir := t.TempDir()
	lines := strings.SplitAfter(string(writeLedger(t, filepath.Join(dir, "src"), 3)), "\n")
	long := testEntry(9)
	long.Artifact = strings.Repeat("r", 3<<16)
	longLine, err := json.Marshal(long)
	if err != nil {
		t.Fatal(err)
	}
	files := map[string]string{
		"long lines":        lines[0] + string(longLine) + "\n" + lines[1] + string(longLine) + "\n",
		"blank lines":       "\n" + lines[0] + "  \n\n" + lines[1] + "\t\n" + lines[2] + "\n\n",
		"no final newline":  lines[0] + strings.TrimSuffix(lines[1], "\n"),
		"torn tail":         lines[0] + lines[1] + lines[2][:40],
		"torn long line":    lines[0] + string(longLine[:1<<16+9]),
		"torn, then blanks": lines[0] + lines[1][:30] + "\n\n  \n",
		"mid-file garbage":  lines[0] + "garbage\n" + lines[1],
		"empty":             "",
	}
	for name, content := range files {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(dir, strings.ReplaceAll(name, " ", "_"))
			if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
				t.Fatal(err)
			}
			for _, allowTorn := range []bool{true, false} {
				want, wantAt, werr := readEntriesReadBytes(path, allowTorn)
				got, gotAt, gerr := readEntries(path, allowTorn)
				if fmt.Sprint(gerr) != fmt.Sprint(werr) || gotAt != wantAt || !reflect.DeepEqual(got, want) {
					t.Errorf("allowTorn %v: %d entries, torn at %d, error %v; the ReadBytes reader: %d, %d, %v",
						allowTorn, len(got), gotAt, gerr, len(want), wantAt, werr)
				}
			}
		})
	}
}

// FuzzReadLedger: whatever bytes a ledger file holds, ReadLedger and
// OpenLedger answer with entries or an error, never a panic. A torn tail
// is cut at a line boundary inside the file, what OpenLedger keeps is a
// chain ReadLedger accepts, and a file ReadLedger accepts reopens as is.
func FuzzReadLedger(f *testing.F) {
	data := writeLedger(f, filepath.Join(f.TempDir(), LedgerFile), 3)
	lines := strings.SplitAfter(string(data), "\n")
	f.Add(data)
	f.Add(data[:len(data)-7])                                                            // killed mid-append
	f.Add([]byte(lines[0] + "garbage\n" + lines[1]))                                     // mid-file corruption
	f.Add([]byte(lines[0] + lines[2]))                                                   // a dropped entry
	f.Add([]byte(strings.Replace(string(data), `"outcome":"ok"`, `"outcome":"oom"`, 1))) // an edited entry
	f.Add([]byte("\n\n" + lines[0] + "  \n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), LedgerFile)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, tornAt, err := readEntries(path, true); err == nil && tornAt >= 0 {
			if tornAt > len(data) || (tornAt > 0 && data[tornAt-1] != '\n') {
				t.Fatalf("torn tail at offset %d of %d bytes: not a line boundary", tornAt, len(data))
			}
		}
		strict, serr := ReadLedger(path)
		if serr != nil && !strings.HasPrefix(serr.Error(), "farm: ") {
			t.Errorf("ReadLedger: an untyped error: %v", serr)
		}
		l, note, err := OpenLedger(path)
		if err != nil {
			if serr == nil {
				t.Fatalf("OpenLedger refused a ledger ReadLedger accepts: %v", err)
			}
			if !strings.HasPrefix(err.Error(), "farm: ") {
				t.Errorf("OpenLedger: an untyped error: %v", err)
			}
			return
		}
		n := l.Len()
		l.Close()
		kept, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(data, kept) {
			t.Fatal("OpenLedger left a file that is not a prefix of the one it opened")
		}
		if serr == nil && (note != "" || len(kept) != len(data)) {
			t.Errorf("OpenLedger cut a ledger ReadLedger accepts (%q)", note)
		}
		entries, err := ReadLedger(path)
		if err != nil {
			t.Fatalf("OpenLedger kept a ledger ReadLedger refuses: %v", err)
		}
		if n > len(entries) || (serr == nil && len(entries) != len(strict)) {
			t.Errorf("OpenLedger holds %d keys of %d entries", n, len(entries))
		}
	})
}
