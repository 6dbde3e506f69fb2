package farm

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"

	"beltway/internal/engine"
	"beltway/internal/harness"
	"beltway/internal/workload"
)

// LedgerFile is the ledger's filename inside a farm out dir.
const LedgerFile = "LEDGER.jsonl"

// CheckpointFile is the engine checkpoint's filename inside an out dir.
const CheckpointFile = "checkpoint.jsonl"

// runsDir holds the per-run artifact files inside an out dir.
const runsDir = "runs"

// Config parameterizes a farm run.
type Config struct {
	Grid Grid
	// OutDir receives the ledger, checkpoint, and per-run artifacts.
	OutDir string
	// Workers bounds concurrent worker processes; <= 0 means 2.
	Workers int
	// Resume picks up from OutDir's checkpoint and ledger. Without it,
	// OutDir must not already hold a ledger (the ledger is append-only:
	// starting over means a fresh directory, not a rewrite).
	Resume bool
	// WorkerCommand builds the spawn-th worker process command; it must
	// run ServeWorker on stdin/stdout. Required.
	WorkerCommand func(spawn int) *exec.Cmd
	// Progress, if non-nil, receives one line per notable event.
	Progress func(string)
}

// Summary reports what a farm run did. Every field is a count
// (cmd/farm -metrics-out renders them with harness.WriteCounters).
type Summary struct {
	Jobs         int `json:"jobs"`
	Completed    int `json:"completed"`
	Failed       int `json:"failed"`
	Resumed      int `json:"resumed"`
	Invalidated  int `json:"invalidated"`
	WorkerSpawns int `json:"worker_spawns"`
	// WorkerCrashes counts worker processes lost mid-job (exit, signal,
	// protocol breakdown); JobsRetried the jobs requeued because their
	// worker crashed.
	WorkerCrashes int `json:"worker_crashes"`
	JobsRetried   int `json:"jobs_retried"`
	LedgerEntries int `json:"ledger_entries"`
}

// Run executes the grid over worker processes, appending every completed
// run to the out dir's hash-chained ledger. A worker crash (a fatal Go
// runtime error or an OOM kill included) fails only its job, which is
// requeued through the engine's transient-retry path on a respawned
// worker; a killed orchestrator resumes from the checkpoint and ledger
// with no duplicated or lost entries.
func Run(cfg Config) (*Summary, error) {
	if err := cfg.Grid.Validate(); err != nil {
		return nil, err
	}
	if cfg.OutDir == "" {
		return nil, fmt.Errorf("farm: no out dir")
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.WorkerCommand == nil {
		return nil, fmt.Errorf("farm: no worker command")
	}
	progress := cfg.Progress
	if progress == nil {
		progress = func(string) {}
	}

	if err := os.MkdirAll(filepath.Join(cfg.OutDir, runsDir), 0o755); err != nil {
		return nil, err
	}
	ledgerPath := filepath.Join(cfg.OutDir, LedgerFile)
	if !cfg.Resume {
		if fi, err := os.Stat(ledgerPath); err == nil && fi.Size() > 0 {
			return nil, fmt.Errorf("farm: %s already holds a ledger; resume it (-resume) or use a fresh out dir — ledgers are append-only", cfg.OutDir)
		}
	}
	ledger, note, err := OpenLedger(ledgerPath)
	if err != nil {
		return nil, err
	}
	defer ledger.Close()
	if note != "" {
		progress(note)
	}

	binHash, err := engine.BinaryHash()
	if err != nil {
		return nil, fmt.Errorf("farm: %w", err)
	}
	gridJSON, err := json.Marshal(cfg.Grid)
	if err != nil {
		return nil, err
	}
	fingerprint := engine.Fingerprint("farm", binHash, string(gridJSON))

	// mu guards what worker goroutines report: the first ledger error and
	// the crash counts.
	var (
		mu        sync.Mutex
		ledgerErr error
		sum       Summary
	)
	eng := engine.New(engine.Config{
		Workers:     cfg.Workers,
		Checkpoint:  filepath.Join(cfg.OutDir, CheckpointFile),
		Resume:      cfg.Resume,
		Fingerprint: fingerprint,
		Progress:    cfg.Progress,
		OnRecord: func(rec engine.Record) {
			if rec.Key.Experiment != Experiment || !rec.Outcome.Completed() {
				return
			}
			if err := commitToLedger(cfg.OutDir, ledger, rec, cfg.Grid.Env, binHash); err != nil {
				mu.Lock()
				if ledgerErr == nil {
					ledgerErr = err
				}
				mu.Unlock()
			}
		},
	})
	defer eng.Close()
	stopFlush := eng.FlushOnSignal(os.Interrupt, syscall.SIGTERM)
	defer stopFlush()

	pool := engine.NewProcPool(engine.ProcConfig{
		Workers: cfg.Workers,
		Command: cfg.WorkerCommand,
		OnCrash: func(spawn int, kind engine.CrashKind) {
			mu.Lock()
			sum.WorkerCrashes++
			mu.Unlock()
			progress(fmt.Sprintf("farm: worker %d lost (%s); its job will be requeued", spawn, kind))
		},
	})
	defer pool.Close()

	// The per-benchmark Appel minimum-heap searches run in-process,
	// checkpointed (and resumed) like everything else.
	benches := make([]*workload.Benchmark, len(cfg.Grid.Benchmarks))
	for i, name := range cfg.Grid.Benchmarks {
		benches[i] = workload.Get(name)
	}
	mins, err := harness.MinHeaps(eng,
		engine.Key{Experiment: minHeapExperiment, Collector: "appel"}, benches, cfg.Grid.Env)
	if err != nil {
		return nil, err
	}
	specs, err := BuildSpecs(cfg.Grid, mins)
	if err != nil {
		return nil, err
	}

	jobs := make([]engine.Job, len(specs))
	for i := range specs {
		spec := specs[i]
		jobs[i] = engine.Job{Key: spec.Key(), Run: func() (any, engine.Outcome, error) {
			req, err := json.Marshal(spec)
			if err != nil {
				return nil, "", err
			}
			resp, err := pool.Do(req)
			if err != nil {
				var ce *engine.CrashError
				if errors.As(err, &ce) {
					mu.Lock()
					sum.JobsRetried++
					mu.Unlock()
					return nil, "", engine.MarkTransient(err)
				}
				return nil, "", err
			}
			var wr WorkerResult
			if err := json.Unmarshal(resp, &wr); err != nil {
				return nil, "", fmt.Errorf("farm: bad worker reply: %w", err)
			}
			return wr.Payload, wr.Outcome, nil
		}}
	}
	recs, err := eng.Run(jobs)
	if err != nil {
		return nil, err
	}
	if cerr := eng.Close(); cerr != nil {
		return nil, cerr
	}
	if ledgerErr != nil {
		return nil, ledgerErr
	}

	sum.Jobs = len(recs)
	sum.Invalidated = eng.Invalidated()
	sum.WorkerSpawns = pool.Spawns()
	sum.LedgerEntries = ledger.Len()
	for _, rec := range recs {
		if rec.Outcome.Completed() {
			sum.Completed++
		} else {
			sum.Failed++
		}
		if rec.Resumed {
			sum.Resumed++
		}
	}
	return &sum, nil
}

// commitToLedger writes the run's artifact file (atomically: temp file
// then rename) and appends its ledger entry. Called for fresh and
// resumed records alike; the ledger's key check makes it idempotent, so
// a crash between checkpoint write and ledger append heals on resume.
// Every spec in one farm run shares the grid environment, so the spec is
// fully reconstructible from the record key plus env.
func commitToLedger(outDir string, ledger *Ledger, rec engine.Record, env harness.Env, binHash string) error {
	spec := JobSpec{
		Collector: rec.Key.Collector,
		Benchmark: rec.Key.Benchmark,
		HeapBytes: rec.Key.HeapBytes,
		Env:       env,
	}
	if ledger.Has(spec.Key()) {
		return nil
	}
	name := artifactName(rec.Key)
	full := filepath.Join(outDir, runsDir, name)
	tmp := full + ".tmp"
	if err := os.WriteFile(tmp, rec.Payload, 0o644); err != nil {
		return err
	}
	if err := os.Rename(tmp, full); err != nil {
		return err
	}
	_, err := ledger.Append(Entry{
		Spec:         spec,
		Outcome:      rec.Outcome,
		Attempts:     rec.Attempts,
		BinaryHash:   binHash,
		Artifact:     filepath.Join(runsDir, name),
		ResultDigest: harness.PayloadDigest(rec.Payload),
	})
	return err
}

// artifactName renders a run key as a filename: experiment, collector,
// benchmark, heap joined with "__", path separators replaced.
func artifactName(k engine.Key) string {
	s := fmt.Sprintf("%s__%s__%s__%d.json", k.Experiment, k.Collector, k.Benchmark, k.HeapBytes)
	return strings.NewReplacer("/", "_", string(filepath.Separator), "_").Replace(s)
}
