package farm

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"beltway/internal/engine"
	"beltway/internal/harness"
)

// TestMain doubles as the farm worker for the end-to-end tests: when
// FARM_TEST_WORKER is set the test binary runs a ServeWorker loop,
// optionally self-SIGKILLing on its FARM_TEST_DIE_AFTER-th request.
func TestMain(m *testing.M) {
	if os.Getenv("FARM_TEST_WORKER") != "" {
		die, _ := strconv.Atoi(os.Getenv("FARM_TEST_DIE_AFTER"))
		if err := ServeWorker(os.Stdin, os.Stdout, WorkerOpts{DieAfter: die}); err != nil {
			fmt.Fprintln(os.Stderr, "worker:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func testGrid() Grid {
	return Grid{
		Collectors:  []string{"appel", "25.25.100"},
		Benchmarks:  []string{"jess"},
		HeapFactors: []float64{2, 3},
		Env:         harness.EnvForScale(0.1),
	}
}

// workerCommand re-execs this test binary in worker mode. dieAfterFirst,
// when positive, arms only the first-spawned worker to self-SIGKILL on
// its dieAfterFirst-th request, so respawned replacements survive.
func workerCommand(t *testing.T, dieAfterFirst int) func(int) *exec.Cmd {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	return func(spawn int) *exec.Cmd {
		c := exec.Command(exe)
		c.Env = append(os.Environ(), "FARM_TEST_WORKER=1")
		if dieAfterFirst > 0 && spawn == 0 {
			c.Env = append(c.Env, fmt.Sprintf("FARM_TEST_DIE_AFTER=%d", dieAfterFirst))
		}
		return c
	}
}

func runFarm(t *testing.T, dir string, dieAfterFirst int, resume bool) *Summary {
	t.Helper()
	sum, err := Run(Config{
		Grid:          testGrid(),
		OutDir:        dir,
		Workers:       2,
		Resume:        resume,
		WorkerCommand: workerCommand(t, dieAfterFirst),
	})
	if err != nil {
		t.Fatalf("farm run in %s: %v", dir, err)
	}
	return sum
}

// TestFarmEndToEnd: a small grid over two worker processes completes,
// every run lands in the ledger, verification (chain, digests, and a
// sampled byte-identical replay) passes, and the report renders from the
// verified records.
func TestFarmEndToEnd(t *testing.T) {
	dir := t.TempDir()
	sum := runFarm(t, dir, 0, false)
	if sum.Failed != 0 || sum.Completed != sum.Jobs || sum.Jobs != 4 {
		t.Fatalf("summary %+v", sum)
	}
	if sum.LedgerEntries != 4 {
		t.Fatalf("ledger has %d entries, want 4", sum.LedgerEntries)
	}
	vr, err := Verify(dir, 2, nil)
	if err != nil {
		t.Fatalf("verify: %v", err)
	}
	if vr.Entries != 4 || vr.Replayed != 2 || vr.BinaryMismatches != 0 {
		t.Fatalf("verify result %+v", vr)
	}
	rep, err := Report(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rep, "jess") || !strings.Contains(rep, "4 ledger-verified") {
		t.Fatalf("report:\n%s", rep)
	}
}

// TestFarmWorkerKilledMidJob is the kill-resilience proof: the first
// worker SIGKILLs itself on its first job, the engine requeues exactly
// that job (Attempts=2) onto a respawned worker, and the final ledger is
// result-identical — and the report byte-identical — to an uninterrupted
// farm over the same grid.
func TestFarmWorkerKilledMidJob(t *testing.T) {
	clean := t.TempDir()
	runFarm(t, clean, 0, false)

	crashed := t.TempDir()
	sum := runFarm(t, crashed, 1, false)
	if sum.Failed != 0 || sum.Completed != 4 {
		t.Fatalf("crashed-worker summary %+v", sum)
	}
	if sum.WorkerCrashes != 1 {
		t.Fatalf("want exactly 1 worker crash, got %d", sum.WorkerCrashes)
	}
	if sum.JobsRetried != 1 {
		t.Fatalf("want exactly 1 requeued job, got %d", sum.JobsRetried)
	}
	if sum.WorkerSpawns < 3 {
		t.Fatalf("want a respawn after the kill (>=3 spawns for 2 slots), got %d", sum.WorkerSpawns)
	}

	entries, err := ReadLedger(filepath.Join(crashed, LedgerFile))
	if err != nil {
		t.Fatal(err)
	}
	retried := 0
	for _, e := range entries {
		if e.Attempts > 0 {
			retried++
			if e.Attempts != 2 {
				t.Fatalf("requeued job recorded %d attempts, want 2", e.Attempts)
			}
		}
	}
	if retried != 1 {
		t.Fatalf("%d ledger entries carry retry attempts, want exactly 1", retried)
	}

	// Result identity with the uninterrupted farm: same keys, same digests.
	cleanEntries, err := ReadLedger(filepath.Join(clean, LedgerFile))
	if err != nil {
		t.Fatal(err)
	}
	digests := func(es []Entry) map[string]string {
		m := map[string]string{}
		for _, e := range es {
			m[e.Spec.Key().String()] = e.ResultDigest
		}
		return m
	}
	cd, kd := digests(cleanEntries), digests(entries)
	if len(cd) != len(kd) {
		t.Fatalf("entry counts differ: %d vs %d", len(cd), len(kd))
	}
	for k, d := range cd {
		if kd[k] != d {
			t.Fatalf("digest for %s differs after worker kill", k)
		}
	}
	repClean, err := Report(clean)
	if err != nil {
		t.Fatal(err)
	}
	repCrashed, err := Report(crashed)
	if err != nil {
		t.Fatal(err)
	}
	if repClean != repCrashed {
		t.Fatalf("reports differ after worker kill:\n--- clean ---\n%s\n--- crashed ---\n%s", repClean, repCrashed)
	}
	if _, err := Verify(crashed, 1, nil); err != nil {
		t.Fatalf("verify after worker kill: %v", err)
	}
}

// TestFarmResumeAfterOrchestratorCrash: kill the orchestrator after the
// checkpoint committed a run but mid-ledger-append (torn final line).
// Resume must re-execute nothing, restore the lost ledger entry from the
// checkpointed record, and produce a ledger byte-identical to the
// uninterrupted one.
func TestFarmResumeAfterOrchestratorCrash(t *testing.T) {
	ref := t.TempDir()
	runFarm(t, ref, 0, false)

	// Reconstruct the crash scene in a copy: full checkpoint and
	// artifacts, ledger cut to a torn final line.
	crash := t.TempDir()
	copyFile(t, filepath.Join(ref, CheckpointFile), filepath.Join(crash, CheckpointFile))
	os.MkdirAll(filepath.Join(crash, runsDir), 0o755)
	arts, _ := os.ReadDir(filepath.Join(ref, runsDir))
	for _, a := range arts {
		copyFile(t, filepath.Join(ref, runsDir, a.Name()), filepath.Join(crash, runsDir, a.Name()))
	}
	refLedger, err := os.ReadFile(filepath.Join(ref, LedgerFile))
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(refLedger, []byte("\n"))
	if len(lines) < 4 {
		t.Fatalf("reference ledger too short: %d lines", len(lines))
	}
	var torn bytes.Buffer
	for _, ln := range lines[:len(lines)-2] { // all but the last full line
		torn.Write(ln)
	}
	last := lines[len(lines)-2]
	torn.Write(last[:len(last)/2]) // half the final line, no newline
	if err := os.WriteFile(filepath.Join(crash, LedgerFile), torn.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	sum := runFarm(t, crash, 0, true)
	if sum.Resumed != sum.Jobs || sum.Jobs != 4 {
		t.Fatalf("resume re-executed work: %+v", sum)
	}
	if sum.Invalidated != 0 {
		t.Fatalf("resume invalidated %d records with an unchanged binary and grid", sum.Invalidated)
	}
	if sum.LedgerEntries != 4 {
		t.Fatalf("resumed ledger has %d entries, want 4", sum.LedgerEntries)
	}
	got, err := os.ReadFile(filepath.Join(crash, LedgerFile))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, refLedger) {
		t.Fatalf("resumed ledger is not byte-identical to the uninterrupted one:\n--- ref ---\n%s\n--- resumed ---\n%s", refLedger, got)
	}
	if _, err := Verify(crash, 0, nil); err != nil {
		t.Fatalf("verify after resume: %v", err)
	}
}

// TestFarmFreshDirRefusesExistingLedger: without -resume, an out dir that
// already holds ledger entries is refused — append-only means starting
// over needs a fresh directory.
func TestFarmFreshDirRefusesExistingLedger(t *testing.T) {
	dir := t.TempDir()
	runFarm(t, dir, 0, false)
	_, err := Run(Config{
		Grid:          testGrid(),
		OutDir:        dir,
		Workers:       1,
		WorkerCommand: workerCommand(t, 0),
	})
	if err == nil || !strings.Contains(err.Error(), "append-only") {
		t.Fatalf("fresh run over an existing ledger: %v", err)
	}
}

// TestFarmRequiresWorkerCommand: every caller names its worker command,
// so Run refuses a config without one before it touches the out dir.
func TestFarmRequiresWorkerCommand(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "out")
	_, err := Run(Config{Grid: testGrid(), OutDir: dir})
	if err == nil || !strings.Contains(err.Error(), "no worker command") {
		t.Fatalf("run without a worker command: %v", err)
	}
	if _, serr := os.Stat(dir); !os.IsNotExist(serr) {
		t.Fatalf("refused run created %s: %v", dir, serr)
	}
}

// TestVerifyDetectsArtifactTamper: flipping bytes in a run artifact must
// fail verification (the ledger digest no longer matches) and block the
// report.
func TestVerifyDetectsArtifactTamper(t *testing.T) {
	dir := t.TempDir()
	runFarm(t, dir, 0, false)
	entries, err := ReadLedger(filepath.Join(dir, LedgerFile))
	if err != nil {
		t.Fatal(err)
	}
	target := filepath.Join(dir, filepath.FromSlash(entries[0].Artifact))
	data, err := os.ReadFile(target)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	os.WriteFile(target, data, 0o644)

	if _, err := Verify(dir, 0, nil); err == nil || !strings.Contains(err.Error(), "result_digest") {
		t.Fatalf("tampered artifact not detected: %v", err)
	}
	if _, err := Report(dir); err == nil {
		t.Fatal("report rendered from a tampered artifact")
	}
}

func copyFile(t *testing.T, src, dst string) {
	t.Helper()
	data, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dst, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestGridValidate covers the upfront grid checks.
func TestGridValidate(t *testing.T) {
	good := testGrid()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name  string
		tweak func(*Grid)
	}{
		{"no collectors", func(g *Grid) { g.Collectors = nil }},
		{"bad collector", func(g *Grid) { g.Collectors = []string{"nonsense"} }},
		{"no benchmarks", func(g *Grid) { g.Benchmarks = nil }},
		{"unknown benchmark", func(g *Grid) { g.Benchmarks = []string{"quake"} }},
		{"no factors", func(g *Grid) { g.HeapFactors = nil }},
		{"negative factor", func(g *Grid) { g.HeapFactors = []float64{-1} }},
		{"sharded adapt", func(g *Grid) { g.Env.Mutators = 2; g.Env.Policy = "slo" }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := testGrid()
			tc.tweak(&g)
			if err := g.Validate(); err == nil {
				t.Fatalf("grid %+v accepted", g)
			}
		})
	}
}

// TestBuildSpecsDedup: factors that round to the same frame-aligned heap
// produce one spec, and spec keys are unique.
func TestBuildSpecsDedup(t *testing.T) {
	g := testGrid()
	g.HeapFactors = []float64{2, 1.9999999, 3}
	mins := map[string]int{"jess": 1 << 20}
	specs, err := BuildSpecs(g, mins)
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 4 { // 2 collectors × {2,3}; 1.9999999 rounds up into 2
		t.Fatalf("got %d specs: %+v", len(specs), specs)
	}
	seen := map[string]bool{}
	for _, sp := range specs {
		k := sp.Key().String()
		if seen[k] {
			t.Fatalf("duplicate key %s", k)
		}
		seen[k] = true
		if sp.HeapBytes%g.Env.FrameBytes != 0 {
			t.Fatalf("heap %d not frame-aligned", sp.HeapBytes)
		}
	}
}

// TestWorkerRejectsBadSpec: a deterministic worker-side failure travels
// back as a job error, not a crash — the engine records it without retry.
func TestWorkerRejectsBadSpec(t *testing.T) {
	pool := engine.NewProcPool(engine.ProcConfig{
		Workers: 1,
		Command: workerCommand(t, 0),
	})
	defer pool.Close()
	_, err := pool.Do([]byte(`{"collector":"nonsense","benchmark":"jess","heap_bytes":1048576,"env":{}}`))
	if err == nil || !strings.Contains(err.Error(), "unrecognized configuration") {
		t.Fatalf("bad collector spec: %v", err)
	}
	var ce *engine.CrashError
	if errors.As(err, &ce) {
		t.Fatalf("deterministic failure classified as crash: %v", err)
	}
}
