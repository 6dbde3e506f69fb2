// Process-level job transport: a pool of worker OS processes driven over
// line-delimited JSON on stdin/stdout, with per-process fault isolation.
// Unlike the in-process worker pool, a job that dies with a fatal Go
// runtime error or is OOM-killed takes down only its worker process; the
// orchestrator classifies the loss, respawns a replacement lazily, and
// surfaces the failure as a *CrashError that callers mark transient so
// the engine's retry path requeues the job. A job ends on its own, as a
// run does: the pool sets no deadline and keeps no timer.
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
// A non-nil *CrashError means the worker process was lost (exit, kill,
// protocol corruption) — the job may be retried on another worker.
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

// roundTrip writes one request frame and reads the matching response on
// the calling goroutine. On any process-level failure the worker is
// reaped and a *CrashError returned.
func (p *ProcPool) roundTrip(w *workerProc, req json.RawMessage) (json.RawMessage, error) {
	id, err := w.request(req)
	if err != nil {
		return nil, fmt.Errorf("engine: marshal request: %w", err)
	}
	if _, err := w.in.Write(w.frame.Bytes()); err != nil {
		kind := p.reap(w)
		return nil, &CrashError{Kind: kind, Worker: w.id,
			Detail: fmt.Sprintf("write: %v (%s)", err, p.exitDetail(w))}
	}
	// The line is a view of w.out's buffer: it is decoded below, before
	// the worker's next round trip reads again.
	line, err := w.out.Next()
	if err != nil {
		kind := p.reap(w)
		return nil, &CrashError{Kind: kind, Worker: w.id,
			Detail: fmt.Sprintf("read: %v (%s)", err, p.exitDetail(w))}
	}
	var resp procResponse
	if err := json.Unmarshal(bytes.TrimSpace(line), &resp); err != nil {
		return nil, p.broke(w, fmt.Sprintf("undecodable response: %v", err))
	}
	if resp.ID != id {
		return nil, p.broke(w, fmt.Sprintf("response id %d for request %d", resp.ID, id))
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

// reap closes the worker's stdin and waits for it. A worker reaped for a
// failed write or read has already exited, so its exit status is the
// crash kind: a worker that died by signal reports CrashSignal even when
// first noticed as an EOF.
func (p *ProcPool) reap(w *workerProc) CrashKind {
	w.in.Close()
	w.waitErr = w.cmd.Wait()
	w.waited = true
	var ee *exec.ExitError
	if errors.As(w.waitErr, &ee) {
		if ws, ok := ee.Sys().(syscall.WaitStatus); ok && ws.Signaled() {
			return CrashSignal
		}
	}
	return CrashExit
}

// broke SIGKILLs and reaps a worker that answered with a frame the pool
// cannot match to its request: it is still running, and its stream can
// no longer be trusted.
func (p *ProcPool) broke(w *workerProc, detail string) error {
	w.cmd.Process.Kill()
	p.reap(w)
	return &CrashError{Kind: CrashProto, Worker: w.id, Detail: detail}
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

// Close shuts down every idle worker: closing stdin ends its ServeProc
// loop, and Close waits for it to exit. It marks the pool closed.
// Concurrent Do calls must have completed.
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
		if err := w.cmd.Wait(); err != nil && firstErr == nil {
			firstErr = err
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
