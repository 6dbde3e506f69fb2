// Process-level job transport: a pool of worker OS processes driven over
// line-delimited JSON on stdin/stdout, with per-process fault isolation.
// Unlike the in-process worker pool, a crashing, OOM-killed, or hanging
// job takes down only its worker process; the orchestrator classifies the
// loss, respawns a replacement lazily, and surfaces the failure as a
// *CrashError that callers typically mark transient so the engine's
// retry path requeues the job.
package engine

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sync"
	"syscall"
	"time"
)

// CrashKind classifies how a worker process was lost.
type CrashKind string

const (
	// CrashSpawn: the worker process could not be started.
	CrashSpawn CrashKind = "spawn"
	// CrashExit: the worker exited (non-zero status, or cleanly but
	// mid-job) without answering.
	CrashExit CrashKind = "exit"
	// CrashSignal: the worker was killed by a signal. SIGKILL may be the
	// kernel OOM killer.
	CrashSignal CrashKind = "signal"
	// CrashHang: the worker missed the per-job deadline and was escalated
	// SIGTERM -> (grace) -> SIGKILL.
	CrashHang CrashKind = "hang"
	// CrashProto: the worker answered with an undecodable or out-of-order
	// frame; its stream can no longer be trusted.
	CrashProto CrashKind = "protocol"
)

// CrashError reports the loss of a worker process mid-job. It is the
// error returned by ProcPool.Do for every process-level failure, so
// callers can distinguish "the process died" (retryable elsewhere) from
// "the job itself failed" (deterministic, returned as a plain error).
type CrashError struct {
	Kind   CrashKind
	Worker int // spawn sequence number of the lost worker
	Detail string
}

func (e *CrashError) Error() string {
	return fmt.Sprintf("worker %d %s: %s", e.Worker, e.Kind, e.Detail)
}

// procRequest and procResponse frame the stdin/stdout protocol: one JSON
// object per line, matched by ID.
type procRequest struct {
	ID  int             `json:"id"`
	Req json.RawMessage `json:"req"`
}

type procResponse struct {
	ID   int             `json:"id"`
	Resp json.RawMessage `json:"resp,omitempty"`
	Err  string          `json:"err,omitempty"`
}

// ProcConfig parameterizes a ProcPool.
type ProcConfig struct {
	// Workers bounds concurrently live worker processes; <= 0 means 1.
	Workers int
	// Command builds the command for the spawn-th worker process (0-based
	// over the pool's lifetime, respawns included). The pool wires stdin,
	// stdout and stderr itself (a worker's stderr is os.Stderr); the
	// command must run a ServeProc loop.
	Command func(spawn int) *exec.Cmd
	// Deadline bounds one job round trip; 0 means none. A worker that
	// misses it is escalated SIGTERM -> KillGrace -> SIGKILL and its job
	// fails with CrashHang.
	Deadline time.Duration
	// KillGrace is the pause between SIGTERM and SIGKILL when escalating
	// (default 2s).
	KillGrace time.Duration
	// OnCrash, if non-nil, is told of every worker lost mid-job, from the
	// goroutine driving that job (Spawns counts the launches).
	OnCrash func(spawn int, kind CrashKind)
}

// ProcPool dispatches jobs over worker processes. Safe for concurrent
// Do calls; each call exclusively holds one worker for its round trip.
type ProcPool struct {
	cfg  ProcConfig
	free chan *workerProc // slots; nil entry = spawn on demand

	mu     sync.Mutex
	spawns int
	closed bool
}

// workerProc is one live worker process, held by at most one Do call.
type workerProc struct {
	id    int // spawn sequence number
	cmd   *exec.Cmd
	in    io.WriteCloser
	out   *LineReader
	frame bytes.Buffer  // the request line being written, reused
	enc   *json.Encoder // encodes into frame
	seq   int           // request ids issued to this worker

	waited  bool // reap completed; waitErr is meaningful
	waitErr error
}

// newWorkerProc wires a started worker's pipes: requests are encoded into
// a reused frame buffer, responses read in place.
func newWorkerProc(id int, cmd *exec.Cmd, in io.WriteCloser, out io.Reader) *workerProc {
	w := &workerProc{id: id, cmd: cmd, in: in, out: NewLineReader(out)}
	w.enc = json.NewEncoder(&w.frame)
	return w
}

// NewProcPool creates a pool of Workers lazily-spawned slots.
func NewProcPool(cfg ProcConfig) *ProcPool {
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	if cfg.KillGrace <= 0 {
		cfg.KillGrace = 2 * time.Second
	}
	p := &ProcPool{cfg: cfg, free: make(chan *workerProc, cfg.Workers)}
	for i := 0; i < cfg.Workers; i++ {
		p.free <- nil
	}
	return p
}

func (p *ProcPool) spawn() (*workerProc, error) {
	p.mu.Lock()
	id := p.spawns
	p.spawns++
	p.mu.Unlock()
	cmd := p.cfg.Command(id)
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, &CrashError{Kind: CrashSpawn, Worker: id, Detail: err.Error()}
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, &CrashError{Kind: CrashSpawn, Worker: id, Detail: err.Error()}
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, &CrashError{Kind: CrashSpawn, Worker: id, Detail: err.Error()}
	}
	return newWorkerProc(id, cmd, in, out), nil
}

// Spawns returns how many worker processes the pool has started.
func (p *ProcPool) Spawns() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.spawns
}

// Do sends one request to a worker process and returns its response.
// A non-nil *CrashError means the worker process was lost (crash, kill,
// hang, protocol corruption) — the job may be retried on another worker.
// A plain error is the worker's own handler error: deterministic, not a
// process failure.
func (p *ProcPool) Do(req json.RawMessage) (json.RawMessage, error) {
	w := <-p.free
	if w == nil {
		var err error
		if w, err = p.spawn(); err != nil {
			p.free <- nil
			p.crashed(err)
			return nil, err
		}
	}
	resp, err := p.roundTrip(w, req)
	if err != nil {
		var ce *CrashError
		if errors.As(err, &ce) {
			// The worker is gone; return its slot empty for a lazy respawn.
			p.free <- nil
			p.crashed(err)
			return nil, err
		}
		p.free <- w
		return nil, err
	}
	p.free <- w
	return resp, nil
}

func (p *ProcPool) crashed(err error) {
	var ce *CrashError
	if p.cfg.OnCrash != nil && errors.As(err, &ce) {
		p.cfg.OnCrash(ce.Worker, ce.Kind)
	}
}

// roundTrip writes one request frame and reads the matching response,
// enforcing the deadline. On any process-level failure the worker is
// reaped (killed if necessary) and a *CrashError returned.
func (p *ProcPool) roundTrip(w *workerProc, req json.RawMessage) (json.RawMessage, error) {
	id, err := w.request(req)
	if err != nil {
		return nil, fmt.Errorf("engine: marshal request: %w", err)
	}
	if _, err := w.in.Write(w.frame.Bytes()); err != nil {
		kind := p.reap(w, CrashExit)
		return nil, &CrashError{Kind: kind, Worker: w.id,
			Detail: fmt.Sprintf("write: %v (%s)", err, p.exitDetail(w))}
	}

	type read struct {
		line []byte
		err  error
	}
	ch := make(chan read, 1)
	// The line is a view of w.out's buffer: it is decoded below, before
	// the worker's next round trip reads again.
	go func() {
		line, rerr := w.out.Next()
		ch <- read{line, rerr}
	}()
	var r read
	if p.cfg.Deadline > 0 {
		timer := time.NewTimer(p.cfg.Deadline)
		select {
		case r = <-ch:
			timer.Stop()
		case <-timer.C:
			kind := p.reap(w, CrashHang)
			<-ch // the killed process EOFs the abandoned reader
			return nil, &CrashError{Kind: kind, Worker: w.id,
				Detail: fmt.Sprintf("no response within %v (%s)", p.cfg.Deadline, p.exitDetail(w))}
		}
	} else {
		r = <-ch
	}
	if r.err != nil {
		kind := p.reap(w, CrashExit)
		return nil, &CrashError{Kind: kind, Worker: w.id,
			Detail: fmt.Sprintf("read: %v (%s)", r.err, p.exitDetail(w))}
	}
	var resp procResponse
	if err := json.Unmarshal(bytes.TrimSpace(r.line), &resp); err != nil {
		p.reap(w, CrashProto)
		return nil, &CrashError{Kind: CrashProto, Worker: w.id,
			Detail: fmt.Sprintf("undecodable response: %v", err)}
	}
	if resp.ID != id {
		p.reap(w, CrashProto)
		return nil, &CrashError{Kind: CrashProto, Worker: w.id,
			Detail: fmt.Sprintf("response id %d for request %d", resp.ID, id)}
	}
	if resp.Err != "" {
		return nil, errors.New(resp.Err)
	}
	return resp.Resp, nil
}

// request encodes the worker's next request frame, a line, into w.frame
// and returns its id.
func (w *workerProc) request(req json.RawMessage) (int, error) {
	id := w.seq
	w.seq++
	w.frame.Reset()
	return id, w.enc.Encode(procRequest{ID: id, Req: req})
}

// reap shuts the worker down (TERM, then KILL after the grace) and waits
// for it, refining the crash kind from the exit status: a worker that
// died by signal reports CrashSignal even when first noticed as an EOF.
func (p *ProcPool) reap(w *workerProc, kind CrashKind) CrashKind {
	w.in.Close()
	done := make(chan error, 1)
	go func() { done <- w.cmd.Wait() }()
	var werr error
	w.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case werr = <-done:
	case <-time.After(p.cfg.KillGrace):
		w.cmd.Process.Kill()
		werr = <-done
	}
	w.waitErr = werr
	w.waited = true
	if kind == CrashHang || kind == CrashProto {
		return kind
	}
	var ee *exec.ExitError
	if errors.As(werr, &ee) {
		if ws, ok := ee.Sys().(syscall.WaitStatus); ok && ws.Signaled() {
			return CrashSignal
		}
	}
	return CrashExit
}

// exitDetail renders the reaped worker's exit status for error messages.
func (p *ProcPool) exitDetail(w *workerProc) string {
	if !w.waited {
		return "not reaped"
	}
	werr := w.waitErr
	if werr == nil {
		return "exited cleanly mid-job"
	}
	var ee *exec.ExitError
	if errors.As(werr, &ee) {
		if ws, ok := ee.Sys().(syscall.WaitStatus); ok && ws.Signaled() {
			d := fmt.Sprintf("killed by %v", ws.Signal())
			if ws.Signal() == syscall.SIGKILL {
				d += ", possibly the OOM killer"
			}
			return d
		}
		return fmt.Sprintf("exit status %d", ee.ExitCode())
	}
	return werr.Error()
}

// Close shuts down every idle worker (closing stdin lets the ServeProc
// loop exit cleanly) and marks the pool closed. Concurrent Do calls must
// have completed.
func (p *ProcPool) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	p.mu.Unlock()
	var firstErr error
	for i := 0; i < p.cfg.Workers; i++ {
		w := <-p.free
		if w == nil {
			continue
		}
		w.in.Close()
		done := make(chan error, 1)
		go func() { done <- w.cmd.Wait() }()
		select {
		case err := <-done:
			if err != nil && firstErr == nil {
				firstErr = err
			}
		case <-time.After(p.cfg.KillGrace):
			w.cmd.Process.Kill()
			<-done
		}
	}
	return firstErr
}

// ServeProc runs a worker loop: one procRequest per stdin line, the
// handler's answer (or error) written back as a procResponse line. It
// returns when the input stream ends (the orchestrator closed the pipe
// or died). cmd/farm's worker mode and test helper processes run this.
func ServeProc(r io.Reader, w io.Writer, handle func(json.RawMessage) (json.RawMessage, error)) error {
	lines := NewLineReader(r)
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for {
		line, rerr := lines.Next()
		if trimmed := bytes.TrimSpace(line); len(trimmed) > 0 {
			var req procRequest
			if err := json.Unmarshal(trimmed, &req); err != nil {
				return fmt.Errorf("engine: worker: undecodable request: %w", err)
			}
			resp := procResponse{ID: req.ID}
			out, herr := handle(req.Req)
			if herr != nil {
				resp.Err = herr.Error()
			} else {
				resp.Resp = out
			}
			if err := enc.Encode(resp); err != nil {
				return fmt.Errorf("engine: worker: response: %w", err)
			}
			if err := bw.Flush(); err != nil {
				return err
			}
		}
		if rerr == io.EOF {
			return nil
		}
		if rerr != nil {
			return rerr
		}
	}
}
