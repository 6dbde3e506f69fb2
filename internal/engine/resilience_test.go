package engine

import (
	"errors"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"
)

func TestRetryTransientError(t *testing.T) {
	e := New(Config{Workers: 1})
	var calls atomic.Int32
	job := Job{
		Key: Key{Experiment: "retry", Benchmark: "flaky"},
		Run: func() (any, Outcome, error) {
			if calls.Add(1) <= retries { // succeeds on the last attempt allowed
				return nil, "", MarkTransient(errors.New("scratch file busy"))
			}
			return 42, OK, nil
		},
	}
	recs, err := e.Run([]Job{job})
	if err != nil {
		t.Fatal(err)
	}
	rec := recs[0]
	if rec.Outcome != OK {
		t.Fatalf("outcome %s (%s), want OK after transient retries", rec.Outcome, rec.Error)
	}
	if calls.Load() != 1+retries {
		t.Errorf("job executed %d times, want %d", calls.Load(), 1+retries)
	}
	if rec.Attempts != 1+retries {
		t.Errorf("Attempts = %d, want %d", rec.Attempts, 1+retries)
	}
}

func TestNoRetryForPermanentErrorOrPanic(t *testing.T) {
	e := New(Config{Workers: 1})
	var permCalls, panicCalls atomic.Int32
	jobs := []Job{
		{
			Key: Key{Experiment: "retry", Benchmark: "permanent"},
			Run: func() (any, Outcome, error) {
				permCalls.Add(1)
				return nil, "", errors.New("deterministic misconfiguration")
			},
		},
		{
			Key: Key{Experiment: "retry", Benchmark: "panicking"},
			Run: func() (any, Outcome, error) {
				panicCalls.Add(1)
				panic("invariant broken")
			},
		},
	}
	recs, err := e.Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if recs[0].Outcome != Errored || permCalls.Load() != 1 {
		t.Errorf("permanent error: outcome %s after %d calls, want error after 1",
			recs[0].Outcome, permCalls.Load())
	}
	if recs[1].Outcome != Panic || panicCalls.Load() != 1 {
		t.Errorf("panic: outcome %s after %d calls, want panic after 1",
			recs[1].Outcome, panicCalls.Load())
	}
}

func TestRetriesExhaustedKeepsTransientError(t *testing.T) {
	e := New(Config{Workers: 1})
	var calls atomic.Int32
	job := Job{
		Key: Key{Experiment: "retry", Benchmark: "hopeless"},
		Run: func() (any, Outcome, error) {
			calls.Add(1)
			return nil, "", MarkTransient(errors.New("still busy"))
		},
	}
	recs, err := e.Run([]Job{job})
	if err != nil {
		t.Fatal(err)
	}
	if recs[0].Outcome != Errored || calls.Load() != 1+retries {
		t.Errorf("outcome %s after %d calls, want error after %d (1 + retries)",
			recs[0].Outcome, calls.Load(), 1+retries)
	}
	if !IsTransient(recs[0].Err) {
		t.Error("final record lost the transient marker")
	}
}

// TestResumeFromTruncatedCheckpoint simulates a run killed mid-write:
// the checkpoint's final line is cut short. Resume must keep every
// complete record and re-execute only the job whose record was torn.
func TestResumeFromTruncatedCheckpoint(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "ck.jsonl")
	var calls atomic.Int32
	countingJob := func(name string, v int) Job {
		return Job{
			Key: Key{Experiment: "trunc", Benchmark: name},
			Run: func() (any, Outcome, error) { calls.Add(1); return v, OK, nil },
		}
	}
	jobs := []Job{countingJob("a", 1), countingJob("b", 2), countingJob("c", 3)}

	e1 := New(Config{Workers: 1, Checkpoint: ckpt})
	if _, err := e1.Run(jobs); err != nil {
		t.Fatal(err)
	}
	if err := e1.Close(); err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 3 {
		t.Fatalf("first run executed %d jobs, want 3", calls.Load())
	}

	// Tear the tail off the last record.
	data, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(ckpt, data[:len(data)-10], 0o644); err != nil {
		t.Fatal(err)
	}

	calls.Store(0)
	e2 := New(Config{Workers: 1, Checkpoint: ckpt, Resume: true})
	recs, err := e2.Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	if calls.Load() != 1 {
		t.Errorf("resume executed %d jobs, want 1 (only the torn record)", calls.Load())
	}
	if !recs[0].Resumed || !recs[1].Resumed || recs[2].Resumed {
		t.Errorf("resumed flags = %v %v %v, want true true false",
			recs[0].Resumed, recs[1].Resumed, recs[2].Resumed)
	}
	for i, rec := range recs {
		if rec.Outcome != OK || payloadInt(t, rec) != i+1 {
			t.Errorf("record %d: outcome %s payload %s", i, rec.Outcome, rec.Payload)
		}
	}
}

func TestFlushOnSignalSyncsCheckpointAndReraises(t *testing.T) {
	var mu sync.Mutex
	var raised []os.Signal
	origRaise := raiseSignal
	raiseSignal = func(sig os.Signal) {
		mu.Lock()
		raised = append(raised, sig)
		mu.Unlock()
	}
	defer func() { raiseSignal = origRaise }()

	ckpt := filepath.Join(t.TempDir(), "ck.jsonl")
	e := New(Config{Workers: 1, Checkpoint: ckpt})
	if _, err := e.Run([]Job{intJob("sig", 7)}); err != nil {
		t.Fatal(err)
	}
	stop := e.FlushOnSignal(syscall.SIGUSR1)
	defer stop()

	if err := syscall.Kill(os.Getpid(), syscall.SIGUSR1); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		n := len(raised)
		mu.Unlock()
		if n > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("signal handler never re-raised")
		}
		time.Sleep(time.Millisecond)
	}
	mu.Lock()
	got := raised[0]
	mu.Unlock()
	if got != syscall.SIGUSR1 {
		t.Errorf("re-raised %v, want SIGUSR1", got)
	}
	// The handler closed the checkpoint; the record must be durable.
	prior, err := LoadCheckpoint(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	rec, ok := prior[Key{Experiment: "test", Benchmark: "sig"}.String()]
	if !ok || rec.Outcome != OK {
		t.Fatalf("checkpoint after signal flush = %v, want the completed record", prior)
	}
	// Close after the handler's close is a no-op, not an error.
	if err := e.Close(); err != nil {
		t.Errorf("Close after signal flush: %v", err)
	}
}
