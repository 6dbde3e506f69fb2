package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

func tracebench(t *testing.T, args ...string) string {
	t.Helper()
	var out bytes.Buffer
	if err := run(args, &out); err != nil {
		t.Fatalf("tracebench %s: %v", strings.Join(args, " "), err)
	}
	return out.String()
}

// table is the report from its header row on: what follows the lines
// that say where the trace came from.
func table(t *testing.T, out string) string {
	t.Helper()
	i := strings.Index(out, "collector ")
	if i < 0 {
		t.Fatalf("no table in:\n%s", out)
	}
	return out[i:]
}

// TestReportIndependentOfJobs: replays finish in any order on four
// workers and the report is the one a single worker prints.
func TestReportIndependentOfJobs(t *testing.T) {
	seq := tracebench(t, "-bench", "jess", "-scale", "0.1", "-jobs", "1")
	par := tracebench(t, "-bench", "jess", "-scale", "0.1", "-jobs", "4")
	if seq != par {
		t.Errorf("-jobs 4 prints a different report than -jobs 1:\n--- jobs=1 ---\n%s--- jobs=4 ---\n%s", seq, par)
	}
	if strings.Contains(seq, "failed:") || strings.Count(seq, "\n") != 13 {
		t.Errorf("want nine collector rows and no failure:\n%s", seq)
	}
}

// TestFileReplayMatchesOneProcessRun: a trace written with -record and
// replayed with -trace in the same heap gives the table of the run that
// recorded and replayed in one process — on jess, and on raytrace, whose
// trace carries the one op (the RefIsNil nil test) jess never emits.
func TestFileReplayMatchesOneProcessRun(t *testing.T) {
	for _, bench := range []string{"jess", "raytrace"} {
		file := filepath.Join(t.TempDir(), bench+".trace")
		common := []string{"-scale", "0.1", "-heapMB", "0.125"}
		whole := tracebench(t, append([]string{"-bench", bench}, common...)...)
		tracebench(t, append([]string{"-bench", bench, "-record", file}, common...)...)
		replay := tracebench(t, append([]string{"-trace", file}, common...)...)
		if table(t, whole) != table(t, replay) {
			t.Errorf("%s: replay from file differs from the one-process run:\n--- one process ---\n%s--- from file ---\n%s",
				bench, whole, replay)
		}
		if strings.Contains(whole, "failed:") {
			t.Errorf("%s: a replay failed in the heap the test chose:\n%s", bench, whole)
		}
	}
}

// TestOutOfMemoryReplayIsAFailedRow: a collector that cannot run the
// trace in the heap given costs its own row, not the report.
func TestOutOfMemoryReplayIsAFailedRow(t *testing.T) {
	out := tracebench(t, "-bench", "jess", "-scale", "0.1", "-heapMB", "0.07", "-gcs", "fixed:25,25.25")
	rows := strings.Split(strings.TrimSpace(table(t, out)), "\n")
	if len(rows) != 3 || !strings.Contains(rows[1], "Fixed 25") || !strings.Contains(rows[1], "failed: out of memory") ||
		strings.Contains(rows[2], "failed") {
		t.Errorf("want a failed Fixed 25 row above a measured Beltway 25.25 row:\n%s", out)
	}
}
