package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"beltway/internal/engine"
	"beltway/internal/experiments"
	"beltway/internal/farm"
	"beltway/internal/harness"
	"beltway/internal/workload"
)

const (
	gridWorkers = maxWidth // never more load than cores
	gridStages  = 4        // fig9, farm.run, farm.verify, farm.report
)

// gridPlan is grid_small_jobs after set-up. A round runs, each in a fresh
// directory: an in-process fig9 suite over the engine, then a farm grid
// over worker processes, its verification and its report.
type gridPlan struct {
	env  harness.Env
	grid farm.Grid
	tmp  string
	exe  string
}

func setupGrid(seed int64, tmpRoot string, _ func() time.Duration) (*plan, error) {
	env := harness.EnvForScale(benchScale)
	env.Seed = seed
	g := &gridPlan{env: env, grid: farm.Grid{
		Collectors:  gridCollectors,
		Benchmarks:  []string{"jess", "db", "raytrace", "javac", "jack"},
		HeapFactors: []float64{1.5, 2, 3},
		Env:         env,
	}}
	if err := g.grid.Validate(); err != nil {
		return nil, err
	}
	var err error
	if g.exe, err = os.Executable(); err != nil {
		return nil, err
	}
	// The farm stamps every ledger entry with the binary's hash; hashing
	// it is part of what a user waits for before the first job.
	if _, err := engine.BinaryHash(); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(tmpRoot, 0o755); err != nil {
		return nil, err
	}
	if g.tmp, err = os.MkdirTemp(tmpRoot, "grid"); err != nil {
		return nil, err
	}
	return &plan{grid: g}, nil
}

// gridTrace is what a traced grid round records beyond its outcomes.
type gridTrace struct {
	suiteExecMS   float64 // sum of Record.DurationMS over the fig9 suite's jobs
	farmExecMS    float64 // sum of duration_ms over the checkpoint's farm records
	minHeapExecMS float64 // the same over its farm-minheap records
	specs         []farm.JobSpec
	spawns        int
	workerRSSMB   float64
}

func (g *gridPlan) round(m *meter, tr *gridTrace) []outcome {
	dir, err := os.MkdirTemp(g.tmp, "round")
	if err != nil {
		o := outcome{name: "grid", attempted: 1}
		o.fail("%v", err)
		return []outcome{o}
	}
	defer os.RemoveAll(dir)
	farmDir := filepath.Join(dir, "farm")
	return []outcome{
		g.fig9(m, dir, tr),
		g.farmRun(m, farmDir, tr),
		g.farmVerify(m, farmDir),
		g.farmReport(m, farmDir),
	}
}

func sha(parts ...string) string {
	h := sha256.New()
	for _, p := range parts {
		h.Write([]byte(p))
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// absorbRecord reads one engine measurement record into a grid outcome:
// one more operation attempted, beside the stage's own call. An
// out-of-memory point is a valid cell of a sweep, not a failure.
func (o *outcome) absorbRecord(rec engine.Record) {
	o.attempted++
	o.ops++
	if !rec.Outcome.Completed() {
		o.fail("%s: %s: %s", rec.Key, rec.Outcome, rec.Error)
		return
	}
	var p harness.RunPayload
	if err := json.Unmarshal(rec.Payload, &p); err != nil || p.Result == nil {
		o.fail("%s: undecodable payload: %v", rec.Key, err)
		return
	}
	if p.Result.Failure != "" || p.Result.Aborted {
		o.fail("%s: failure %q aborted=%v", rec.Key, p.Result.Failure, p.Result.Aborted)
		return
	}
	if !p.Result.OOM {
		o.sims = append(o.sims, simRun{total: p.Result.TotalTime, gcTime: p.Result.GCTime,
			maxPause: p.Result.MaxPause, ops: 1})
	}
}

func (g *gridPlan) fig9(m *meter, dir string, tr *gridTrace) outcome {
	var (
		mu     sync.Mutex
		recs   []engine.Record
		tables []harness.Table
	)
	o := m.measure("experiments.fig9", gridWorkers, func() error {
		s := experiments.New(experiments.Opts{
			Env:        g.env,
			Points:     3,
			Jobs:       gridWorkers,
			Checkpoint: filepath.Join(dir, "fig9.jsonl"),
			Benchmarks: []*workload.Benchmark{workload.Jess(), workload.DB(), workload.Javac()},
			OnRecord: func(rec engine.Record) {
				mu.Lock()
				recs = append(recs, rec)
				mu.Unlock()
			},
		})
		var err error
		tables, err = s.Figure9()
		if cerr := s.Close(); err == nil {
			err = cerr
		}
		return err
	})
	// Records arrive in completion order, which two workers do not repeat;
	// sums of floats are read off them, so fix the order.
	sort.Slice(recs, func(i, k int) bool { return recs[i].Key.String() < recs[k].Key.String() })
	for _, rec := range recs {
		if tr != nil {
			tr.suiteExecMS += rec.DurationMS
		}
		if rec.Key.Experiment != "minheap" {
			o.absorbRecord(rec)
		}
	}
	var rendered []string
	for _, t := range tables {
		rendered = append(rendered, t.String())
	}
	o.digest = sha(rendered...)
	return o
}

func (g *gridPlan) farmRun(m *meter, farmDir string, tr *gridTrace) outcome {
	var (
		sum  *farm.Summary
		cmds []*exec.Cmd
	)
	o := m.measure("farm.run", gridWorkers, func() (err error) {
		sum, err = farm.Run(farm.Config{
			Grid:    g.grid,
			OutDir:  farmDir,
			Workers: gridWorkers,
			WorkerCommand: func(int) *exec.Cmd {
				cmd := exec.Command(g.exe, "worker")
				cmds = append(cmds, cmd)
				return cmd
			},
		})
		return err
	})
	if sum == nil {
		return o
	}
	recs, err := engine.LoadCheckpoint(filepath.Join(farmDir, farm.CheckpointFile))
	if err != nil {
		o.fail("checkpoint: %v", err)
	}
	keys := make([]string, 0, len(recs))
	for k := range recs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var digests []string
	for _, k := range keys {
		rec := recs[k]
		if rec.Key.Experiment != farm.Experiment {
			if tr != nil {
				tr.minHeapExecMS += rec.DurationMS
			}
			continue
		}
		o.absorbRecord(rec)
		digests = append(digests, k, harness.PayloadDigest(rec.Payload))
		if tr != nil {
			tr.farmExecMS += rec.DurationMS
			tr.specs = append(tr.specs, farm.JobSpec{Collector: rec.Key.Collector,
				Benchmark: rec.Key.Benchmark, HeapBytes: rec.Key.HeapBytes, Env: g.env})
		}
	}
	o.digest = sha(digests...)
	if sum.Failed > 0 || sum.LedgerEntries != sum.Jobs || len(digests) != 2*sum.Jobs {
		o.fail("farm: %d jobs, %d failed, %d ledger entries, %d checkpoint records",
			sum.Jobs, sum.Failed, sum.LedgerEntries, len(digests)/2)
	}
	if tr != nil {
		tr.spawns = sum.WorkerSpawns
		for _, cmd := range cmds {
			// farm.Run has closed its pool, which waited for every worker.
			if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok && ru != nil {
				tr.workerRSSMB = max(tr.workerRSSMB, float64(ru.Maxrss)/1024)
			}
		}
	}
	return o
}

func (g *gridPlan) farmVerify(m *meter, farmDir string) outcome {
	var v *farm.VerifyResult
	o := m.measure("farm.verify", 1, func() (err error) {
		v, err = farm.Verify(farmDir, 2, nil)
		return err
	})
	if v != nil {
		o.digest = fmt.Sprintf("entries=%d replayed=%d", v.Entries, v.Replayed)
		if v.Replayed != 2 || v.BinaryMismatches != 0 {
			o.fail("verify: replayed %d of 2, %d binary mismatches", v.Replayed, v.BinaryMismatches)
		}
	}
	return o
}

func (g *gridPlan) farmReport(m *meter, farmDir string) outcome {
	var text string
	o := m.measure("farm.report", 1, func() (err error) {
		text, err = farm.Report(farmDir)
		return err
	})
	o.digest = sha(text)
	if len(o.reasons) == 0 && !strings.Contains(text, "ledger-verified") {
		o.fail("report: unexpected text")
	}
	return o
}

// serveWorker is the farm's worker mode: farm.Run re-execs this binary
// with the single argument "worker".
func serveWorker() error {
	return farm.ServeWorker(os.Stdin, os.Stdout, farm.WorkerOpts{})
}
