// Package farm fans the experiment suite out over worker OS processes
// with per-process fault isolation, and records every completed run in an
// append-only, hash-chained ledger that can be verified — and sampled
// runs re-executed byte-identically — after the fact.
//
// The farm composes three existing layers rather than reimplementing
// them: internal/engine supplies scheduling, checkpoint/resume, and the
// transient-retry path; engine.ProcPool supplies the process transport
// and crash classification; internal/harness supplies the measurement
// itself plus its canonical payload serialization. What the farm adds is
// the job vocabulary (JobSpec: a run described entirely by strings and
// numbers, so it can cross a process boundary and be replayed years
// later) and the ledger.
package farm

import (
	"fmt"
	"sort"

	"beltway/internal/collectors"
	"beltway/internal/core"
	"beltway/internal/engine"
	"beltway/internal/harness"
	"beltway/internal/workload"
)

// Experiment tags farm measurement jobs in engine keys and checkpoints.
const Experiment = "farm"

// minHeapExperiment tags the per-benchmark minimum-heap searches the farm
// runs in-process before building its grid.
const minHeapExperiment = "farm-minheap"

// JobSpec describes one run completely and portably: the collector by
// its command-line spelling (collectors.Parse syntax), the benchmark by
// name, the exact heap size, and the full environment. A JobSpec is the
// farm's IPC request, its checkpoint key, and — stored in the ledger —
// the recipe a verifier replays.
type JobSpec struct {
	Collector string      `json:"collector"`
	Benchmark string      `json:"benchmark"`
	HeapBytes int         `json:"heap_bytes"`
	Env       harness.Env `json:"env"`
}

// Key returns the engine checkpoint key for the spec.
func (s JobSpec) Key() engine.Key {
	return engine.Key{
		Experiment: Experiment,
		Collector:  s.Collector,
		Benchmark:  s.Benchmark,
		HeapBytes:  s.HeapBytes,
	}
}

// Grid is the cross-product a farm run sweeps: collectors × benchmarks ×
// heap factors (multiples of each benchmark's Appel minimum heap, as in
// the paper's figures).
type Grid struct {
	Collectors  []string    `json:"collectors"`
	Benchmarks  []string    `json:"benchmarks"`
	HeapFactors []float64   `json:"heap_factors"`
	Env         harness.Env `json:"env"`
}

// Validate rejects a grid the farm could not run: unknown benchmarks,
// unparsable collector specs, non-positive heap factors, or an
// environment the runtime would reject. Collector specs are checked by
// parsing them at a nominal heap size.
func (g Grid) Validate() error {
	if len(g.Collectors) == 0 {
		return fmt.Errorf("farm: no collectors")
	}
	if len(g.Benchmarks) == 0 {
		return fmt.Errorf("farm: no benchmarks")
	}
	if len(g.HeapFactors) == 0 {
		return fmt.Errorf("farm: no heap factors")
	}
	for _, spec := range g.Collectors {
		if _, err := collectors.Parse(spec, g.Env.Options(16<<20)); err != nil {
			return fmt.Errorf("farm: %w", err)
		}
	}
	for _, b := range g.Benchmarks {
		if workload.Get(b) == nil {
			return fmt.Errorf("farm: unknown benchmark %q (want one of %v)", b, workload.Names())
		}
	}
	for _, f := range g.HeapFactors {
		if f <= 0 {
			return fmt.Errorf("farm: heap factor %v must be positive", f)
		}
	}
	return harness.ValidateEnv(g.Env)
}

// BuildSpecs expands a grid into job specs, given each benchmark's
// minimum heap. Heap sizes are factor×min rounded up to a whole frame (so
// resumed runs rebuild identical keys regardless of float formatting),
// and specs that round to the same key are deduplicated. Order is
// deterministic: benchmark-major, then collector, then factor.
func BuildSpecs(g Grid, mins map[string]int) ([]JobSpec, error) {
	frame := g.Env.FrameBytes
	if frame <= 0 {
		return nil, fmt.Errorf("farm: grid env has no frame size (use harness.EnvForScale)")
	}
	var specs []JobSpec
	seen := map[string]bool{}
	for _, b := range g.Benchmarks {
		min, ok := mins[b]
		if !ok || min <= 0 {
			return nil, fmt.Errorf("farm: no minimum heap for benchmark %q", b)
		}
		factors := append([]float64(nil), g.HeapFactors...)
		sort.Float64s(factors)
		for _, c := range g.Collectors {
			for _, f := range factors {
				heap := int(f * float64(min))
				heap = ((heap + frame - 1) / frame) * frame
				if heap < 2*frame {
					heap = 2 * frame
				}
				sp := JobSpec{Collector: c, Benchmark: b, HeapBytes: heap, Env: g.Env}
				k := sp.Key().String()
				if seen[k] {
					continue
				}
				seen[k] = true
				specs = append(specs, sp)
			}
		}
	}
	return specs, nil
}

// ExecuteSpec resolves a spec's strings into a harness.RunSpec and
// executes it: the canonical payload bytes — exactly the bytes the
// engine checkpoints and the ledger digests, so a replay can demand byte
// identity — and the outcome.
func ExecuteSpec(spec JobSpec) ([]byte, engine.Outcome, error) {
	bench := workload.Get(spec.Benchmark)
	if bench == nil {
		return nil, "", fmt.Errorf("farm: unknown benchmark %q", spec.Benchmark)
	}
	cfg, err := collectors.Parse(spec.Collector, spec.Env.Options(spec.HeapBytes))
	if err != nil {
		return nil, "", fmt.Errorf("farm: %w", err)
	}
	return harness.RunSpec{
		Key:      spec.Key(),
		Make:     func(int) core.Config { return cfg },
		Workload: harness.Bench(bench),
		Env:      spec.Env,
	}.Execute()
}
