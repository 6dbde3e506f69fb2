package farm

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"sync"

	"beltway/internal/engine"
)

// GenesisHash is the prev_hash of the first ledger entry.
var GenesisHash = hexZeros(sha256.Size)

func hexZeros(n int) string { return hex.EncodeToString(make([]byte, n)) }

// Entry is one line of LEDGER.jsonl: a completed run bound to its exact
// recipe (Spec), the binary that produced it, and a digest of its result
// artifact — hash-chained to the previous entry so the record sequence
// cannot be reordered, dropped from the middle, or rewritten without
// breaking every later hash.
type Entry struct {
	Index      int            `json:"index"`
	PrevHash   string         `json:"prev_hash"`
	Spec       JobSpec        `json:"spec"`
	Outcome    engine.Outcome `json:"outcome"`
	Attempts   int            `json:"attempts,omitempty"`
	BinaryHash string         `json:"binary_hash"`
	// Artifact is the run's payload file, relative to the farm out dir.
	Artifact string `json:"artifact"`
	// ResultDigest is the sha256 of the artifact bytes — the canonical
	// payload serialization, so replaying the spec must reproduce it.
	ResultDigest string `json:"result_digest"`
	// Hash covers this entry serialized with Hash itself empty.
	Hash string `json:"hash"`
}

// EntryHash computes the hash field of an entry: sha256 over the entry's
// canonical JSON with Hash blanked.
func EntryHash(e Entry) (string, error) {
	e.Hash = ""
	b, err := json.Marshal(e)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// Ledger is an open, append-only hash-chained record file. Appends are
// serialized and fsynced, so a crash can lose at most the line being
// written — which OpenLedger detects as a torn tail and truncates.
type Ledger struct {
	mu       sync.Mutex
	f        *os.File
	path     string
	next     int               // next index
	lastHash string            // hash of the final entry (GenesisHash when empty)
	keys     map[string]*Entry // entries by Spec.Key().String()
}

// OpenLedger opens (creating if absent) a ledger for appending and loads
// its existing entries. A final line that does not parse — a torn write
// from an orchestrator killed mid-append — is truncated away with the
// returned note; an unparsable or chain-breaking line anywhere else is
// corruption and an error, because appending after it would silently
// launder a damaged history.
func OpenLedger(path string) (*Ledger, string, error) {
	entries, tornAt, err := readEntries(path, true)
	if err != nil {
		return nil, "", err
	}
	if err := verifyChain(path, entries); err != nil {
		return nil, "", err
	}
	note := ""
	if tornAt >= 0 {
		if terr := os.Truncate(path, int64(tornAt)); terr != nil {
			return nil, "", fmt.Errorf("farm: truncating torn ledger tail: %w", terr)
		}
		note = fmt.Sprintf("farm: %s: truncated torn final line (orchestrator was killed mid-append); %d intact entries retained", path, len(entries))
	}
	l := &Ledger{path: path, lastHash: GenesisHash, keys: map[string]*Entry{}}
	for i := range entries {
		e := &entries[i]
		l.keys[e.Spec.Key().String()] = e
		l.lastHash = e.Hash
		l.next = e.Index + 1
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, "", err
	}
	l.f = f
	return l, note, nil
}

// Len returns the number of entries.
func (l *Ledger) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.keys)
}

// Has reports whether a run with this key is already ledgered.
func (l *Ledger) Has(key engine.Key) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.keys[key.String()] != nil
}

// Append chains and durably writes an entry for the given run, unless
// its key is already present (the exactly-once guarantee across resumes:
// the engine replays completed records through OnRecord, and the ledger
// absorbs the duplicates). Index, PrevHash and Hash are assigned here;
// the caller fills every other field. Returns whether the entry was
// appended.
func (l *Ledger) Append(e Entry) (bool, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return false, fmt.Errorf("farm: ledger %s is closed", l.path)
	}
	k := e.Spec.Key().String()
	if l.keys[k] != nil {
		return false, nil
	}
	e.Index = l.next
	e.PrevHash = l.lastHash
	h, err := EntryHash(e)
	if err != nil {
		return false, err
	}
	e.Hash = h
	line, err := json.Marshal(e)
	if err != nil {
		return false, err
	}
	if _, err := l.f.Write(append(line, '\n')); err != nil {
		return false, err
	}
	if err := l.f.Sync(); err != nil {
		return false, err
	}
	l.keys[k] = &e
	l.lastHash = e.Hash
	l.next = e.Index + 1
	return true, nil
}

// Close releases the ledger file.
func (l *Ledger) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	f := l.f
	l.f = nil
	return f.Close()
}

// ReadLedger strictly reads and chain-verifies a ledger file: every line
// must parse, indices must run 0,1,2,…, each prev_hash must equal the
// previous entry's hash (GenesisHash for the first), and each entry's
// hash must recompute. Any violation — including a torn tail, which an
// auditor must see rather than silently skip — is an error naming the
// line.
func ReadLedger(path string) ([]Entry, error) {
	entries, _, err := readEntries(path, false)
	if err != nil {
		return nil, err
	}
	if err := verifyChain(path, entries); err != nil {
		return nil, err
	}
	return entries, nil
}

// verifyChain checks that the entries read from path form an intact hash
// chain: indices run 0,1,2,…, each prev_hash is the previous entry's hash
// (GenesisHash for the first), and each hash recomputes.
func verifyChain(path string, entries []Entry) error {
	prev := GenesisHash
	for i := range entries {
		e := &entries[i]
		if e.Index != i {
			return fmt.Errorf("farm: %s entry %d: index %d out of sequence", path, i, e.Index)
		}
		if e.PrevHash != prev {
			return fmt.Errorf("farm: %s entry %d: prev_hash does not chain to entry %d", path, i, i-1)
		}
		h, err := EntryHash(*e)
		if err != nil {
			return err
		}
		if h != e.Hash {
			return fmt.Errorf("farm: %s entry %d: hash mismatch (entry was modified after it was written)", path, i)
		}
		prev = e.Hash
	}
	return nil
}

// readEntries parses a ledger file. When allowTorn is set, a final line
// that fails to parse is reported via the returned byte offset (-1 when
// none) instead of an error; parse failures elsewhere are always errors.
func readEntries(path string, allowTorn bool) ([]Entry, int, error) {
	f, err := os.Open(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, -1, nil
	}
	if err != nil {
		return nil, -1, err
	}
	defer f.Close()
	var entries []Entry
	lines := engine.NewLineReader(f)
	offset := 0
	for lineNo := 1; ; lineNo++ {
		line, rerr := lines.Next()
		trimmed := bytes.TrimSpace(line)
		if len(trimmed) > 0 {
			var e Entry
			if jerr := json.Unmarshal(trimmed, &e); jerr != nil {
				// Is anything non-blank left? If so the bad line is
				// mid-file corruption even in torn-tolerant mode.
				atEOF := rerr == io.EOF || blankToEnd(lines)
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

// blankToEnd reports whether every line left in lines is blank.
func blankToEnd(lines *engine.LineReader) bool {
	for {
		line, err := lines.Next()
		if len(bytes.TrimSpace(line)) > 0 {
			return false
		}
		if err != nil {
			return true
		}
	}
}
