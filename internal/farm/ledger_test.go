package farm

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"beltway/internal/engine"
)

func testEntry(i int) Entry {
	return Entry{
		Spec:         JobSpec{Collector: "appel", Benchmark: "jess", HeapBytes: (i + 2) * 1 << 20},
		Outcome:      engine.OK,
		BinaryHash:   "deadbeef",
		Artifact:     "runs/x.json",
		ResultDigest: strings.Repeat("ab", 32),
	}
}

func TestLedgerChainAppendAndRead(t *testing.T) {
	path := filepath.Join(t.TempDir(), "LEDGER.jsonl")
	l, note, err := OpenLedger(path)
	if err != nil {
		t.Fatal(err)
	}
	if note != "" {
		t.Fatalf("fresh ledger produced note %q", note)
	}
	for i := 0; i < 3; i++ {
		ok, err := l.Append(testEntry(i))
		if err != nil || !ok {
			t.Fatalf("append %d: ok=%v err=%v", i, ok, err)
		}
	}
	// Duplicate key: absorbed, not re-appended.
	if ok, err := l.Append(testEntry(1)); err != nil || ok {
		t.Fatalf("duplicate append: ok=%v err=%v", ok, err)
	}
	if !l.Has(testEntry(0).Spec.Key()) {
		t.Fatal("Has misses an appended key")
	}
	if l.Len() != 3 {
		t.Fatalf("Len = %d, want 3", l.Len())
	}
	l.Close()

	entries, err := ReadLedger(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 3 {
		t.Fatalf("read %d entries", len(entries))
	}
	if entries[0].PrevHash != GenesisHash {
		t.Fatalf("genesis prev_hash = %q", entries[0].PrevHash)
	}
	for i := 1; i < 3; i++ {
		if entries[i].PrevHash != entries[i-1].Hash {
			t.Fatalf("entry %d does not chain", i)
		}
	}
}

// TestLedgerTornTailTruncated: an orchestrator killed mid-append leaves a
// partial final line; reopening detects it, truncates it away, and the
// ledger keeps appending from the last intact entry — ending with a chain
// a strict read accepts.
func TestLedgerTornTailTruncated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "LEDGER.jsonl")
	l, _, err := OpenLedger(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := l.Append(testEntry(i)); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()

	// The strict reader must refuse the torn file...
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"index":2,"prev_hash":"abc","spec":{"col`)
	f.Close()
	if _, err := ReadLedger(path); err == nil {
		t.Fatal("strict read accepted a torn tail")
	}

	// ...while reopening truncates it and resumes the chain.
	l, note, err := OpenLedger(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(note, "torn final line") {
		t.Fatalf("note %q does not report the torn tail", note)
	}
	if l.Len() != 2 {
		t.Fatalf("Len after truncation = %d, want 2", l.Len())
	}
	if ok, err := l.Append(testEntry(2)); err != nil || !ok {
		t.Fatalf("append after truncation: ok=%v err=%v", ok, err)
	}
	l.Close()
	entries, err := ReadLedger(path)
	if err != nil {
		t.Fatalf("chain broken after torn-tail recovery: %v", err)
	}
	if len(entries) != 3 || entries[2].Index != 2 {
		t.Fatalf("got %d entries, last index %d", len(entries), entries[len(entries)-1].Index)
	}
}

// TestLedgerMidFileCorruptionRefused: a bad line with entries after it is
// not a torn tail — reopening must refuse rather than silently skip it.
func TestLedgerMidFileCorruptionRefused(t *testing.T) {
	path := filepath.Join(t.TempDir(), "LEDGER.jsonl")
	l, _, err := OpenLedger(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := l.Append(testEntry(i)); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	data, _ := os.ReadFile(path)
	lines := strings.SplitAfter(string(data), "\n")
	corrupt := "garbage not json\n" + lines[1]
	os.WriteFile(path, []byte(lines[0]+corrupt), 0o644)

	if _, _, err := OpenLedger(path); err == nil {
		t.Fatal("OpenLedger accepted mid-file corruption")
	}
	if _, err := ReadLedger(path); err == nil {
		t.Fatal("ReadLedger accepted mid-file corruption")
	}
}

// TestLedgerTamperDetected: editing any field of a committed entry breaks
// its hash; dropping an entry breaks the chain.
func TestLedgerTamperDetected(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "LEDGER.jsonl")
	l, _, err := OpenLedger(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := l.Append(testEntry(i)); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	pristine, _ := os.ReadFile(path)

	// Flip the result digest of the first entry.
	tampered := strings.Replace(string(pristine), strings.Repeat("ab", 32), "ff"+strings.Repeat("ab", 31), 1)
	if tampered == string(pristine) {
		t.Fatal("tamper did not change the file")
	}
	os.WriteFile(path, []byte(tampered), 0o644)
	if _, err := ReadLedger(path); err == nil || !strings.Contains(err.Error(), "hash mismatch") {
		t.Fatalf("tampered digest not detected: %v", err)
	}

	// Drop the middle entry.
	lines := strings.SplitAfter(string(pristine), "\n")
	os.WriteFile(path, []byte(lines[0]+lines[2]), 0o644)
	if _, err := ReadLedger(path); err == nil || !strings.Contains(err.Error(), "out of sequence") {
		t.Fatalf("dropped entry not detected: %v", err)
	}
}

// TestLedgerFromAnOlderEnvVerifies: an entry's hash is checked against
// the bytes of its line, so a ledger whose specs carry an Env field this
// binary no longer has (the deleted cost budget, which older binaries
// wrote as "CostBudget":0) still reads, reopens and chains on.
func TestLedgerFromAnOlderEnvVerifies(t *testing.T) {
	e := testEntry(0)
	e.PrevHash = GenesisHash
	line, err := json.Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	old := strings.Replace(string(line), `"env":{`, `"env":{"CostBudget":0,`, 1)
	if old == string(line) {
		t.Fatal("the entry serializes no env")
	}
	sum := sha256.Sum256([]byte(old)) // the line with "hash":"", as EntryHash hashes it
	old = strings.Replace(old, `"hash":""`, `"hash":"`+hex.EncodeToString(sum[:])+`"`, 1)
	path := filepath.Join(t.TempDir(), LedgerFile)
	if err := os.WriteFile(path, []byte(old+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadLedger(path); err != nil {
		t.Fatalf("ReadLedger: %v", err)
	}
	l, _, err := OpenLedger(path)
	if err != nil {
		t.Fatalf("OpenLedger: %v", err)
	}
	if ok, err := l.Append(testEntry(1)); !ok || err != nil {
		t.Fatalf("Append: %v, %v", ok, err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if entries, err := ReadLedger(path); err != nil || len(entries) != 2 {
		t.Fatalf("ReadLedger after an append: %d entries, %v", len(entries), err)
	}
}
