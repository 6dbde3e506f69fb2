package farm

import (
	"bytes"
	"encoding/json"
	"fmt"
	"path/filepath"
	"sort"
	"strings"

	"beltway/internal/harness"
)

// Report renders paper-ready per-benchmark tables from a farm out dir,
// using ledger-verified records only: the chain is checked and every
// artifact re-hashed against its ledger digest before a single number is
// printed, so a tampered or torn record can never reach a table.
func Report(outDir string) (string, error) {
	entries, err := ReadLedger(filepath.Join(outDir, LedgerFile))
	if err != nil {
		return "", err
	}
	if len(entries) == 0 {
		return "", fmt.Errorf("farm: %s holds no ledger entries", outDir)
	}
	byBench := map[string][]*harness.Result{}
	var benches []string
	var buf bytes.Buffer // every artifact is read into it in turn
	for i := range entries {
		e := &entries[i]
		payload, rerr := readArtifact(&buf, outDir, e)
		if rerr != nil {
			return "", fmt.Errorf("farm: entry %d (%s): artifact missing: %v", e.Index, e.Spec.Key(), rerr)
		}
		if harness.PayloadDigest(payload) != e.ResultDigest {
			return "", fmt.Errorf("farm: entry %d (%s): artifact does not match its ledger digest; refusing to report unverified data",
				e.Index, e.Spec.Key())
		}
		var p harness.RunPayload
		if uerr := json.Unmarshal(payload, &p); uerr != nil || p.Result == nil {
			return "", fmt.Errorf("farm: entry %d (%s): undecodable artifact: %v", e.Index, e.Spec.Key(), uerr)
		}
		b := e.Spec.Benchmark
		if _, ok := byBench[b]; !ok {
			benches = append(benches, b)
		}
		byBench[b] = append(byBench[b], p.Result)
	}
	sort.Strings(benches)

	var sb strings.Builder
	fmt.Fprintf(&sb, "Experiment farm report: %d ledger-verified run(s)\n", len(entries))
	for _, b := range benches {
		results := byBench[b]
		sort.Slice(results, func(i, j int) bool {
			if results[i].Collector != results[j].Collector {
				return results[i].Collector < results[j].Collector
			}
			return results[i].HeapBytes < results[j].HeapBytes
		})
		t := harness.ResultsTable(results)
		fmt.Fprintf(&sb, "\n== %s ==\n%s", b, t.String())
	}
	return sb.String(), nil
}
