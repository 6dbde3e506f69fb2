package harness

import (
	"encoding/json"

	"beltway/internal/engine"
	"beltway/internal/stats"
)

// RunSpec is one engine job at the harness level: build the config for
// Key.HeapBytes, run the workload under Env, record the Result.
type RunSpec struct {
	Key      engine.Key
	Make     ConfigFunc
	Workload Workload
	Env      Env
}

// Execute runs the spec and returns what an engine job returns: the
// canonical payload bytes (MarshalRunPayload — the bytes a checkpoint
// holds, the farm ledger digests and a replay must reproduce) and the
// outcome. OOM is an outcome; the error is reserved for misconfiguration
// and corruption.
func (sp RunSpec) Execute() ([]byte, engine.Outcome, error) {
	res, err := Run(sp.Make(sp.Key.HeapBytes), sp.Workload, sp.Env)
	if err != nil {
		return nil, "", err
	}
	out := engine.OK
	if res.OOM {
		out = engine.OOM
	}
	payload, err := MarshalRunPayload(res)
	return payload, out, err
}

// RunPayload is the checkpoint payload for one run: the full Result (so a
// resumed run reproduces tables byte-identically, MMU curves included,
// and telemetry snapshots when enabled) plus a pause-distribution summary
// for log consumers that do not want to re-derive it from the raw pause
// list. Exported so engine.Config.OnRecord consumers (live telemetry
// aggregation in cmd/experiments) can decode checkpoint records.
type RunPayload struct {
	Result     *Result          `json:"result"`
	PauseStats stats.PauseStats `json:"pause_stats"`
}

// Executor runs harness measurements through the engine. It may be shared
// across batches — the checkpoint stays open and completed keys are
// remembered, which is the only result cache there is: a spec whose key
// an earlier batch completed is not run again — and is safe for
// concurrent use.
type Executor struct {
	eng *engine.Engine
}

// NewExecutor creates an executor over a new engine.
func NewExecutor(cfg engine.Config) *Executor {
	return &Executor{eng: engine.New(cfg)}
}

// Engine exposes the underlying engine for non-measurement jobs (e.g.
// checkpointed minimum-heap searches).
func (x *Executor) Engine() *engine.Engine { return x.eng }

// Close releases the engine's checkpoint file, if any.
func (x *Executor) Close() error { return x.eng.Close() }

// RunAll executes the specs in parallel and returns one Result per spec,
// in spec order. Results are always non-nil: a failed job (panic or
// error) yields a placeholder with Result.Failure set, so sweeps degrade
// to a missing point instead of dying. Every result — fresh, resumed from
// the checkpoint, or remembered from an earlier batch that ran its key —
// round-trips through the JSON payload, so output is bit-identical
// whichever it was. The returned error is reserved for engine
// infrastructure failures.
func (x *Executor) RunAll(specs []RunSpec) ([]*Result, error) {
	jobs := make([]engine.Job, len(specs))
	for i := range specs {
		sp := specs[i]
		jobs[i] = engine.Job{Key: sp.Key, Run: func() (any, engine.Outcome, error) {
			payload, out, err := sp.Execute()
			if err != nil {
				return nil, "", err
			}
			// Pre-marshaled, so the checkpoint bytes are the digestable
			// artifact bytes.
			return json.RawMessage(payload), out, nil
		}}
	}
	recs, err := x.eng.Run(jobs)
	if err != nil {
		return nil, err
	}
	results := make([]*Result, len(specs))
	for i, rec := range recs {
		msg := string(rec.Outcome)
		if rec.Error != "" {
			msg += ": " + rec.Error
		}
		if rec.Outcome.Completed() && len(rec.Payload) > 0 {
			var p RunPayload
			switch err := json.Unmarshal(rec.Payload, &p); {
			case err != nil:
				msg = "checkpoint decode: " + err.Error()
			case p.Result == nil:
				msg = "checkpoint decode: payload holds no result"
			default:
				results[i] = p.Result
				continue
			}
		}
		results[i] = failedResult(specs[i], msg)
	}
	return results, nil
}

func failedResult(sp RunSpec, msg string) *Result {
	return &Result{
		Collector: sp.Key.Collector,
		Benchmark: sp.Workload.Name(),
		HeapBytes: sp.Key.HeapBytes,
		Failure:   msg,
	}
}
