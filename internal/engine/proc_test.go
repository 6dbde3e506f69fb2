package engine

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// TestMain doubles as the worker-process entry point for the ProcPool
// tests: when BELTWAY_ENGINE_HELPER is set, the test binary runs a
// ServeProc loop whose handler obeys scripted requests (echo, exit,
// self-SIGKILL, handler error, garbage frame) and exits.
func TestMain(m *testing.M) {
	if os.Getenv("BELTWAY_ENGINE_HELPER") != "" {
		if err := ServeProc(os.Stdin, os.Stdout, helperHandle); err != nil {
			fmt.Fprintln(os.Stderr, "helper:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func helperHandle(req json.RawMessage) (json.RawMessage, error) {
	var cmd string
	if err := json.Unmarshal(req, &cmd); err != nil {
		return nil, err
	}
	switch {
	case cmd == "exit3":
		os.Exit(3)
	case cmd == "killself":
		syscall.Kill(os.Getpid(), syscall.SIGKILL)
		time.Sleep(time.Hour) // unreachable; SIGKILL is not deliverable to a handler
	case cmd == "herr":
		return nil, errors.New("scripted handler failure")
	case cmd == "garbage":
		os.Stdout.WriteString("not json at all\n")
		return nil, errors.New("unreachable") // response after garbage; pool must already distrust the stream
	}
	return json.Marshal("echo:" + cmd)
}

// helperPool builds a pool whose workers re-exec this test binary in
// helper mode.
func helperPool(t *testing.T, cfg ProcConfig) *ProcPool {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Command == nil {
		cfg.Command = func(int) *exec.Cmd {
			c := exec.Command(exe)
			c.Env = append(os.Environ(), "BELTWAY_ENGINE_HELPER=1")
			return c
		}
	}
	p := NewProcPool(cfg)
	t.Cleanup(func() { p.Close() })
	return p
}

func do(t *testing.T, p *ProcPool, cmd string) (string, error) {
	t.Helper()
	req, _ := json.Marshal(cmd)
	resp, err := p.Do(req)
	if err != nil {
		return "", err
	}
	var s string
	if err := json.Unmarshal(resp, &s); err != nil {
		t.Fatalf("bad response %q: %v", resp, err)
	}
	return s, nil
}

func TestProcPoolEcho(t *testing.T) {
	p := helperPool(t, ProcConfig{Workers: 2})
	for i := 0; i < 8; i++ {
		got, err := do(t, p, fmt.Sprintf("m%d", i))
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		if want := fmt.Sprintf("echo:m%d", i); got != want {
			t.Fatalf("job %d: got %q want %q", i, got, want)
		}
	}
	if s := p.Spawns(); s > 2 {
		t.Fatalf("spawned %d workers for a healthy 2-slot pool", s)
	}
}

func TestProcPoolConcurrent(t *testing.T) {
	p := helperPool(t, ProcConfig{Workers: 4})
	var wg sync.WaitGroup
	errs := make([]error, 32)
	for i := 0; i < len(errs); i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got, err := do(t, p, fmt.Sprintf("c%d", i))
			if err == nil && got != fmt.Sprintf("echo:c%d", i) {
				err = fmt.Errorf("got %q", got)
			}
			errs[i] = err
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
	}
}

// TestProcPoolWorkerExit covers a worker that dies with an exit status:
// the job fails with CrashExit and the next job transparently uses a
// respawned worker.
func TestProcPoolWorkerExit(t *testing.T) {
	var crashes []CrashKind
	var mu sync.Mutex
	p := helperPool(t, ProcConfig{Workers: 1, OnCrash: func(_ int, k CrashKind) {
		mu.Lock()
		crashes = append(crashes, k)
		mu.Unlock()
	}})
	if _, err := do(t, p, "warm"); err != nil {
		t.Fatal(err)
	}
	_, err := do(t, p, "exit3")
	var ce *CrashError
	if !errors.As(err, &ce) {
		t.Fatalf("want CrashError, got %v", err)
	}
	if ce.Kind != CrashExit || !strings.Contains(ce.Detail, "exit status 3") {
		t.Fatalf("want CrashExit with status 3, got kind %q detail %q", ce.Kind, ce.Detail)
	}
	if got, err := do(t, p, "after"); err != nil || got != "echo:after" {
		t.Fatalf("post-crash job: %q, %v", got, err)
	}
	if p.Spawns() != 2 {
		t.Fatalf("want 2 spawns (original + respawn), got %d", p.Spawns())
	}
	mu.Lock()
	defer mu.Unlock()
	if len(crashes) != 1 || crashes[0] != CrashExit {
		t.Fatalf("OnCrash observed %v", crashes)
	}
}

// TestProcPoolWorkerSIGKILL is the OOM-kill shape: the worker vanishes
// under SIGKILL mid-job and the crash is classified as a signal death.
func TestProcPoolWorkerSIGKILL(t *testing.T) {
	p := helperPool(t, ProcConfig{Workers: 1})
	_, err := do(t, p, "killself")
	var ce *CrashError
	if !errors.As(err, &ce) {
		t.Fatalf("want CrashError, got %v", err)
	}
	if ce.Kind != CrashSignal {
		t.Fatalf("want CrashSignal, got %q (%s)", ce.Kind, ce.Detail)
	}
	if !strings.Contains(ce.Detail, "killed") {
		t.Fatalf("detail should name the signal: %q", ce.Detail)
	}
	if got, err := do(t, p, "alive"); err != nil || got != "echo:alive" {
		t.Fatalf("post-kill job: %q, %v", got, err)
	}
}

// TestProcPoolHandlerError: an error returned by the worker's handler is
// a plain job error, not a crash — the worker stays up and reusable.
func TestProcPoolHandlerError(t *testing.T) {
	p := helperPool(t, ProcConfig{Workers: 1})
	_, err := do(t, p, "herr")
	if err == nil || err.Error() != "scripted handler failure" {
		t.Fatalf("want the handler's error, got %v", err)
	}
	var ce *CrashError
	if errors.As(err, &ce) {
		t.Fatalf("handler error misclassified as crash: %v", err)
	}
	if got, err := do(t, p, "still"); err != nil || got != "echo:still" {
		t.Fatalf("worker should survive a handler error: %q, %v", got, err)
	}
	if p.Spawns() != 1 {
		t.Fatalf("handler error must not respawn (spawns=%d)", p.Spawns())
	}
}

// TestProcPoolProtocolError: garbage on the response stream kills the
// worker's credibility; the pool reaps it and reports CrashProto.
func TestProcPoolProtocolError(t *testing.T) {
	p := helperPool(t, ProcConfig{Workers: 1})
	_, err := do(t, p, "garbage")
	var ce *CrashError
	if !errors.As(err, &ce) {
		t.Fatalf("want CrashError, got %v", err)
	}
	if ce.Kind != CrashProto {
		t.Fatalf("want CrashProto, got %q (%s)", ce.Kind, ce.Detail)
	}
	if got, err := do(t, p, "fresh"); err != nil || got != "echo:fresh" {
		t.Fatalf("post-protocol-error job: %q, %v", got, err)
	}
}

// TestProcPoolTransientIntegration wires a ProcPool under the engine's
// transient-retry path, the way the farm does: a crash marks the job
// transient, the engine requeues it, and the respawned worker answers.
func TestProcPoolTransientIntegration(t *testing.T) {
	p := helperPool(t, ProcConfig{Workers: 1})
	eng := New(Config{Workers: 1})
	calls := 0
	jobs := []Job{{
		Key: Key{Experiment: "proc", Benchmark: "b"},
		Run: func() (any, Outcome, error) {
			calls++
			cmd := "fine"
			if calls == 1 {
				cmd = "killself"
			}
			req, _ := json.Marshal(cmd)
			resp, err := p.Do(req)
			if err != nil {
				var ce *CrashError
				if errors.As(err, &ce) {
					return nil, "", MarkTransient(err)
				}
				return nil, "", err
			}
			return resp, OK, nil
		},
	}}
	recs, err := eng.Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if recs[0].Outcome != OK {
		t.Fatalf("want OK after requeue, got %s (%s)", recs[0].Outcome, recs[0].Error)
	}
	if recs[0].Attempts != 2 {
		t.Fatalf("want Attempts=2 (requeued exactly once), got %d", recs[0].Attempts)
	}
}

// TestProcPoolSpawnFailure: a worker command that cannot start fails the
// job with CrashSpawn, tells OnCrash, and returns the slot, so the next
// Do tries again instead of blocking; Close has nothing to wait for.
func TestProcPoolSpawnFailure(t *testing.T) {
	var crashes []CrashKind
	var mu sync.Mutex
	missing := filepath.Join(t.TempDir(), "no-such-worker")
	p := helperPool(t, ProcConfig{Workers: 1,
		Command: func(int) *exec.Cmd { return exec.Command(missing) },
		OnCrash: func(_ int, k CrashKind) {
			mu.Lock()
			crashes = append(crashes, k)
			mu.Unlock()
		}})
	for i := 0; i < 2; i++ {
		_, err := do(t, p, "never")
		var ce *CrashError
		if !errors.As(err, &ce) || ce.Kind != CrashSpawn {
			t.Fatalf("attempt %d: want a CrashSpawn CrashError, got %v", i, err)
		}
	}
	mu.Lock()
	if len(crashes) != 2 || crashes[0] != CrashSpawn || crashes[1] != CrashSpawn {
		t.Errorf("OnCrash observed %v, want two spawn failures", crashes)
	}
	mu.Unlock()
	done := make(chan error, 1)
	go func() { done <- p.Close() }()
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("Close: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close blocked on a pool whose workers never started")
	}
}

// TestProcPoolRoundTripAllocBudget holds a warm echo round trip to the Go
// mallocs it takes, plus one: the request frame and the response line are
// the worker's reused buffers, and the answer is read on the calling
// goroutine. A reader goroutine and a channel per job read 10.
func TestProcPoolRoundTripAllocBudget(t *testing.T) {
	const budget = 8 // it reads 7
	p := helperPool(t, ProcConfig{Workers: 1})
	req, _ := json.Marshal("warm")
	if _, err := p.Do(req); err != nil { // spawns the worker and sizes its buffers
		t.Fatal(err)
	}
	// The least over several round trips: json's encoder scratch comes
	// from a sync.Pool, which the race detector empties at random.
	least := uint64(math.MaxUint64)
	for i := 0; i < 16; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := p.Do(req)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		least = min(least, after.Mallocs-before.Mallocs)
	}
	t.Logf("a warm echo round trip: %d Go mallocs", least)
	if least > budget {
		t.Errorf("a warm echo round trip costs %d Go mallocs, budget %d", least, budget)
	}
}
