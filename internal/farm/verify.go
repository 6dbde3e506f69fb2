package farm

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"

	"beltway/internal/engine"
	"beltway/internal/harness"
)

// VerifyResult summarizes a successful verification.
type VerifyResult struct {
	Entries int `json:"entries"`
	// Replayed counts entries re-executed byte-identically.
	Replayed int `json:"replayed"`
	// BinaryMismatches counts entries produced by a different binary than
	// the verifier — a warning, not a failure: the chain and digests still
	// hold, but replay is only attempted for entries from this binary.
	BinaryMismatches int `json:"binary_mismatches"`
}

// Verify audits a farm out dir: the ledger chain must be intact
// (ReadLedger), every entry's artifact must exist and hash to its
// result_digest, and — when replay > 0 — up to that many entries,
// stride-sampled across the ledger, are re-executed and must reproduce
// their artifact bytes exactly. Any violation is an error naming the
// entry.
func Verify(outDir string, replay int, progress func(string)) (*VerifyResult, error) {
	if progress == nil {
		progress = func(string) {}
	}
	entries, err := ReadLedger(filepath.Join(outDir, LedgerFile))
	if err != nil {
		return nil, err
	}
	res := &VerifyResult{Entries: len(entries)}
	binHash, err := engine.BinaryHash()
	if err != nil {
		return nil, fmt.Errorf("farm: %w", err)
	}
	var buf bytes.Buffer // every artifact is read into it in turn
	for i := range entries {
		e := &entries[i]
		payload, rerr := readArtifact(&buf, outDir, e)
		if rerr != nil {
			return nil, fmt.Errorf("farm: entry %d (%s): artifact missing: %v", e.Index, e.Spec.Key(), rerr)
		}
		if got := harness.PayloadDigest(payload); got != e.ResultDigest {
			return nil, fmt.Errorf("farm: entry %d (%s): artifact %s does not match result_digest (artifact or ledger was modified)",
				e.Index, e.Spec.Key(), e.Artifact)
		}
		if e.BinaryHash != binHash {
			res.BinaryMismatches++
		}
	}
	progress(fmt.Sprintf("farm: chain and %d artifact digest(s) verified", len(entries)))
	if res.BinaryMismatches > 0 {
		progress(fmt.Sprintf("farm: warning: %d entr%s produced by a different binary; replay skips them",
			res.BinaryMismatches, plural(res.BinaryMismatches, "y was", "ies were")))
	}

	if replay > 0 && len(entries) > 0 {
		var candidates []*Entry
		for i := range entries {
			if entries[i].BinaryHash == binHash {
				candidates = append(candidates, &entries[i])
			}
		}
		if len(candidates) == 0 && res.BinaryMismatches > 0 {
			return nil, fmt.Errorf("farm: replay requested but no ledger entry matches this binary (rebuilt since the run?)")
		}
		stride := 1
		if len(candidates) > replay {
			stride = len(candidates) / replay
		}
		for i := 0; i < len(candidates) && res.Replayed < replay; i += stride {
			e := candidates[i]
			payload, out, rerr := ExecuteSpec(e.Spec)
			if rerr != nil {
				return nil, fmt.Errorf("farm: entry %d (%s): replay failed: %v", e.Index, e.Spec.Key(), rerr)
			}
			if out != e.Outcome {
				return nil, fmt.Errorf("farm: entry %d (%s): replay outcome %s, ledger says %s", e.Index, e.Spec.Key(), out, e.Outcome)
			}
			if got := harness.PayloadDigest(payload); got != e.ResultDigest {
				return nil, fmt.Errorf("farm: entry %d (%s): replay is not byte-identical to the ledgered result", e.Index, e.Spec.Key())
			}
			res.Replayed++
			progress(fmt.Sprintf("farm: replayed entry %d (%s): byte-identical", e.Index, e.Spec.Key()))
		}
	}
	return res, nil
}

func plural(n int, one, many string) string {
	if n == 1 {
		return one
	}
	return many
}

// readArtifact reads e's artifact into buf, reusing buf's storage: the
// bytes it returns are valid until the next read into buf.
func readArtifact(buf *bytes.Buffer, outDir string, e *Entry) ([]byte, error) {
	f, err := os.Open(filepath.Join(outDir, filepath.FromSlash(e.Artifact)))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	buf.Reset()
	_, err = buf.ReadFrom(f)
	return buf.Bytes(), err
}
