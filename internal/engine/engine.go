// Package engine schedules independent experiment jobs over a bounded
// worker pool with fault isolation, JSONL checkpointing and resume.
//
// Every measurement in the evaluation is an independent, deterministic
// (collector, benchmark, heap size) run, so the full cross-product behind
// a figure is embarrassingly parallel. The engine exploits that while
// keeping the failure and output semantics of the sequential path:
//
//   - jobs run on a pool of Workers goroutines (default GOMAXPROCS);
//   - a panicking job is recorded with Outcome "panic" and the recovered
//     message instead of killing the sweep; there is no timeout, because
//     every simulated run ends on its own (it finishes, runs out of
//     memory or panics);
//   - completed jobs stream Records to a JSONL checkpoint file, and a
//     resumed engine skips jobs whose key already has a completed record;
//   - Run returns records in submission order regardless of completion
//     order, so downstream aggregation is deterministic.
//
// The engine is generic: payloads are anything JSON-marshalable. The
// harness layer (internal/harness.Executor) binds it to collector runs.
package engine

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"sync"
	"time"
)

// Key identifies a job across process restarts. Experiment distinguishes
// job families whose remaining fields would otherwise collide (e.g. the
// pretenuring ablation reruns the same collector/benchmark/heap triple
// under a different environment).
type Key struct {
	Experiment string `json:"experiment,omitempty"`
	Collector  string `json:"collector,omitempty"`
	Benchmark  string `json:"benchmark,omitempty"`
	HeapBytes  int    `json:"heap_bytes,omitempty"`
}

// String renders the key in the stable "experiment/collector/benchmark/heap"
// form used to index checkpoints.
func (k Key) String() string {
	return k.Experiment + "/" + k.Collector + "/" + k.Benchmark + "/" + strconv.Itoa(k.HeapBytes)
}

// Outcome classifies how a job ended.
type Outcome string

const (
	// OK: the job completed and produced a payload.
	OK Outcome = "ok"
	// OOM: the run completed by exhausting the configured heap — a valid,
	// reproducible measurement (figures render it as a missing point).
	OOM Outcome = "oom"
	// Panic: the job panicked; Error holds the recovered value.
	Panic Outcome = "panic"
	// Errored: the job returned a non-nil error.
	Errored Outcome = "error"
)

// Completed reports whether the outcome is a finished, reproducible
// measurement that a resumed run may reuse. Failures (panic, error) are
// re-executed on resume, and so is any other outcome an older binary
// wrote (its "budget" and "timeout").
func (o Outcome) Completed() bool { return o == OK || o == OOM }

// Job is one unit of work. Run returns a JSON-marshalable payload and may
// refine the outcome (returning "" means OK); errors and panics are
// captured by the engine.
type Job struct {
	Key Key
	Run func() (payload any, outcome Outcome, err error)
}

// Record is the durable result of one job — one line of the JSONL
// checkpoint. Payload carries the job's marshaled result for completed
// outcomes.
type Record struct {
	Key        Key             `json:"key"`
	Outcome    Outcome         `json:"outcome"`
	Error      string          `json:"error,omitempty"`
	DurationMS float64         `json:"duration_ms"`
	Payload    json.RawMessage `json:"payload,omitempty"`
	// Attempts counts executions when the transient-retry policy re-ran
	// the job (0 or absent: the first execution stood).
	Attempts int `json:"attempts,omitempty"`
	// ConfigHash stamps the record with Config.Fingerprint at commit
	// time, binding it to the exact build and configuration that produced
	// it. A resumed engine whose fingerprint differs invalidates the
	// record instead of silently reusing a measurement from a different
	// binary or parameter set.
	ConfigHash string `json:"config_hash,omitempty"`

	// Resumed marks records satisfied from the checkpoint rather than
	// executed; it is process-local and not serialized.
	Resumed bool `json:"-"`

	// Err preserves the job's error value (Error is its string form) so
	// the retry policy can inspect it; process-local, never serialized.
	Err error `json:"-"`
}

// Config parameterizes an Engine.
type Config struct {
	// Workers bounds concurrent jobs; <= 0 means GOMAXPROCS.
	Workers int
	// Checkpoint is the JSONL record file; "" disables checkpointing.
	Checkpoint string
	// Resume loads the checkpoint before the first Run and skips jobs
	// whose key already has a completed record. New records are appended.
	Resume bool
	// Fingerprint, when non-empty, is written into every committed
	// record (Record.ConfigHash) and checked on resume: prior records
	// whose hash differs — results from a different build or
	// configuration — are invalidated (re-executed) with a loud warning
	// instead of being silently reused. Empty disables the check.
	Fingerprint string
	// Retries bounds additional executions of a job whose error is marked
	// transient (MarkTransient); 0 disables retrying. Panics are never
	// retried — they are not transient by definition.
	Retries int
	// Progress, if non-nil, receives one line per job completion.
	Progress func(string)
	// OnRecord, if non-nil, receives every record as it settles — freshly
	// executed AND resumed from the checkpoint — so observers (e.g. live
	// telemetry aggregation) see the complete record stream regardless of
	// how much of it came from a resume. It is called concurrently from
	// worker goroutines and must be safe for concurrent use.
	OnRecord func(Record)
}

// Engine executes batches of jobs. It may be shared across successive Run
// calls (the checkpoint stays open in append mode and completed keys are
// remembered across batches) and is safe for concurrent use.
type Engine struct {
	cfg Config
	rep *Reporter

	mu          sync.Mutex
	inited      bool
	prior       map[string]Record // completed records by Key.String()
	file        *os.File
	line        bytes.Buffer  // the checkpoint line being written, reused
	enc         *json.Encoder // encodes into line
	invalidated int           // stale records dropped on resume (fingerprint mismatch)
}

// New creates an engine. The checkpoint file is not touched until the
// first Run.
func New(cfg Config) *Engine {
	e := &Engine{cfg: cfg, rep: newReporter(cfg.Progress), prior: map[string]Record{}}
	e.enc = json.NewEncoder(&e.line)
	return e
}

// Reporter returns the engine's progress reporter.
func (e *Engine) Reporter() *Reporter { return e.rep }

// Invalidated returns how many checkpoint records the resume load dropped
// because their ConfigHash did not match Config.Fingerprint.
func (e *Engine) Invalidated() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.invalidated
}

// Close syncs and releases the checkpoint file, if any. The sync makes
// the final flush crash-safe: every record committed before Close
// returns is durable, not sitting in a kernel buffer.
func (e *Engine) Close() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.file == nil {
		return nil
	}
	f := e.file
	e.file = nil
	serr := f.Sync()
	cerr := f.Close()
	if serr != nil {
		return serr
	}
	return cerr
}

func (e *Engine) init() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.inited {
		return nil
	}
	if e.cfg.Checkpoint != "" {
		if e.cfg.Resume {
			prior, err := LoadCheckpoint(e.cfg.Checkpoint)
			if err != nil {
				return err
			}
			for k, rec := range prior {
				if !rec.Outcome.Completed() {
					continue
				}
				if e.cfg.Fingerprint != "" && rec.ConfigHash != e.cfg.Fingerprint {
					e.invalidated++
					continue
				}
				e.prior[k] = rec
			}
			if e.invalidated > 0 {
				msg := fmt.Sprintf(
					"engine: checkpoint %s: invalidated %d stale record(s) whose config/binary hash does not match this run; they will be re-executed",
					e.cfg.Checkpoint, e.invalidated)
				if e.cfg.Progress != nil {
					e.cfg.Progress(msg)
				} else {
					fmt.Fprintln(os.Stderr, msg)
				}
			}
		}
		flags := os.O_CREATE | os.O_WRONLY
		if e.cfg.Resume {
			flags |= os.O_APPEND
		} else {
			flags |= os.O_TRUNC
		}
		f, err := os.OpenFile(e.cfg.Checkpoint, flags, 0o644)
		if err != nil {
			return err
		}
		e.file = f
	}
	e.inited = true
	return nil
}

// lookup returns a previously completed record for the key, if any.
func (e *Engine) lookup(k Key) (Record, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	rec, ok := e.prior[k.String()]
	return rec, ok
}

// commit persists the record (when checkpointing) and remembers completed
// outcomes so later batches sharing the key skip re-execution. The line is
// json.Marshal(rec) and a newline, encoded into one buffer the engine
// reuses.
func (e *Engine) commit(rec Record) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if rec.Outcome.Completed() {
		e.prior[rec.Key.String()] = rec
	}
	if e.file == nil {
		return nil
	}
	e.line.Reset()
	if err := e.enc.Encode(rec); err != nil {
		return err
	}
	_, err := e.file.Write(e.line.Bytes())
	return err
}

// Run executes the jobs and returns one record per job, in submission
// order. Job failures (panic, error) are reported in the records,
// not as an error; the returned error is reserved for engine
// infrastructure failures (unreadable or unwritable checkpoint).
func (e *Engine) Run(jobs []Job) ([]Record, error) {
	if err := e.init(); err != nil {
		return nil, err
	}
	records := make([]Record, len(jobs))
	if len(jobs) == 0 {
		return records, nil
	}
	e.rep.add(len(jobs))

	workers := e.cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}

	var (
		wg      sync.WaitGroup
		errOnce sync.Once
		runErr  error
	)
	idx := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				j := jobs[i]
				if rec, ok := e.lookup(j.Key); ok {
					rec.Resumed = true
					records[i] = rec
					e.rep.observe(rec)
					if e.cfg.OnRecord != nil {
						e.cfg.OnRecord(rec)
					}
					continue
				}
				rec := e.executeWithRetry(j)
				rec.ConfigHash = e.cfg.Fingerprint
				if err := e.commit(rec); err != nil {
					errOnce.Do(func() { runErr = err })
				}
				records[i] = rec
				e.rep.observe(rec)
				if e.cfg.OnRecord != nil {
					e.cfg.OnRecord(rec)
				}
			}
		}()
	}
	for i := range jobs {
		idx <- i
	}
	close(idx)
	wg.Wait()
	return records, runErr
}

// execute runs one job on the calling worker goroutine, recovering a
// panic into the job's record.
func (e *Engine) execute(j Job) (rec Record) {
	start := time.Now()
	defer func() {
		if r := recover(); r != nil {
			rec = Record{Key: j.Key, Outcome: Panic, Error: fmt.Sprint(r)}
		}
		rec.DurationMS = float64(time.Since(start)) / float64(time.Millisecond)
	}()
	payload, out, err := j.Run()
	if err != nil {
		return Record{Key: j.Key, Outcome: Errored, Error: err.Error(), Err: err}
	}
	if out == "" {
		out = OK
	}
	raw, err := marshalPayload(payload)
	if err != nil {
		return Record{Key: j.Key, Outcome: Errored, Error: "payload: " + err.Error()}
	}
	return Record{Key: j.Key, Outcome: out, Payload: raw}
}

// marshalPayload returns json.Marshal(payload). A pre-marshaled payload
// already in the form json.Marshal would give it is returned as is: the
// job's bytes become the record's, and nothing copies them.
func marshalPayload(payload any) ([]byte, error) {
	if raw, ok := payload.(json.RawMessage); ok && isMarshaled(raw) {
		return raw, nil
	}
	return json.Marshal(payload)
}

// isMarshaled reports whether json.Marshal(json.RawMessage(raw)) is raw
// itself: raw is valid JSON with no whitespace outside its strings and
// nothing json.Marshal escapes for HTML (<, >, &, U+2028, U+2029).
func isMarshaled(raw []byte) bool {
	inString := false
	for i := 0; i < len(raw); i++ {
		switch c := raw[i]; {
		case c == '<' || c == '>' || c == '&':
			return false
		case c == 0xE2 && i+2 < len(raw) && raw[i+1] == 0x80 && raw[i+2]&^1 == 0xA8:
			return false
		case inString && c == '\\':
			i++
		case c == '"':
			inString = !inString
		case !inString && (c == ' ' || c == '\t' || c == '\n' || c == '\r'):
			return false
		}
	}
	return json.Valid(raw)
}
