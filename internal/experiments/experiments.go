// Package experiments regenerates every table and figure of the paper's
// evaluation (§4). Each Figure* method runs the required heap-size sweep
// and renders the same data series the paper plots; cmd/experiments is
// the command-line front end and bench_test.go exposes each experiment as
// a testing.B benchmark.
//
// Measurements execute through internal/engine: the cross-product behind
// each figure is submitted as independent jobs to a bounded worker pool
// (Opts.Jobs), optionally streaming a JSONL checkpoint that a restarted
// run resumes from. The engine remembers completed records by key —
// (experiment tag, collector, benchmark, heap size) — so figures sharing
// configurations (Appel appears in Figures 1, 5, 6, 8, 9 and 10) do not
// rerun identical measurements. Results are reassembled in deterministic
// submission order, so tables are byte-identical regardless of worker
// count or completion order.
package experiments

import (
	"fmt"
	"time"

	"beltway/internal/collectors"
	"beltway/internal/core"
	"beltway/internal/engine"
	"beltway/internal/generational"
	"beltway/internal/harness"
	"beltway/internal/workload"
)

// Opts configures a Suite.
type Opts struct {
	Env    harness.Env
	Points int // heap sizes per sweep (the paper used 33)
	// Benchmarks defaults to the full six-benchmark suite.
	Benchmarks []*workload.Benchmark
	// Progress, if non-nil, receives one line per completed run.
	Progress func(string)
	// Jobs bounds concurrent measurements; <= 0 means GOMAXPROCS.
	Jobs int
	// Checkpoint is a JSONL file receiving one record per completed
	// measurement; "" disables checkpointing.
	Checkpoint string
	// Resume loads Checkpoint and skips measurements it already holds.
	Resume bool
	// Fingerprint, when non-empty, stamps every checkpoint record with
	// this config/binary hash and invalidates prior records whose hash
	// differs on resume (see engine.Config.Fingerprint).
	Fingerprint string
	// Timeout is a per-measurement wall-clock budget; 0 means none.
	Timeout time.Duration
	// OnRecord, if non-nil, receives every engine record (fresh and
	// resumed) as it settles; called concurrently from workers. Used by
	// cmd/experiments to aggregate telemetry live.
	OnRecord func(engine.Record)
	// ServerSLO is the pass/fail bar of the server experiment ("-exp
	// server"), in ParseSLO syntax; "" means DefaultServerSLO.
	ServerSLO string
}

// Suite runs experiments on one Executor, whose engine remembers every
// completed key: a repeated request — the same figure again, a min-heap
// search or a measurement another figure already made — re-executes
// nothing and is decoded from the remembered record. Requests are meant
// to come one after another, as every front end makes them; two
// concurrent requests for one key are safe but may both run.
type Suite struct {
	opts Opts
	exec *harness.Executor
}

// New creates a Suite.
func New(opts Opts) *Suite {
	if opts.Points == 0 {
		opts.Points = 33
	}
	if opts.Env == (harness.Env{}) {
		opts.Env = harness.DefaultEnv()
	}
	if opts.Benchmarks == nil {
		opts.Benchmarks = workload.All()
	}
	return &Suite{
		opts: opts,
		exec: harness.NewExecutor(engine.Config{
			Workers:     opts.Jobs,
			Checkpoint:  opts.Checkpoint,
			Resume:      opts.Resume,
			Fingerprint: opts.Fingerprint,
			Timeout:     opts.Timeout,
			Progress:    opts.Progress,
			OnRecord:    opts.OnRecord,
		}),
	}
}

// Engine returns the suite's execution engine, so callers can wire
// crash-safe shutdown (engine.FlushOnSignal) around a checkpointed sweep.
func (s *Suite) Engine() *engine.Engine { return s.exec.Engine() }

// Close releases the suite's checkpoint file, if any.
func (s *Suite) Close() error { return s.exec.Close() }

// Named collector factories, matching the paper's configuration names.

func (s *Suite) appel() harness.Collector {
	return harness.Collector{Name: "Appel", Make: harness.AppelConfig(s.opts.Env)}
}

func (s *Suite) fixed(pct int) harness.Collector {
	return harness.Collector{Name: fmt.Sprintf("Fixed %d", pct), Make: func(h int) core.Config {
		return generational.Fixed(pct, s.opts.Env.Options(h))
	}}
}

func (s *Suite) xx(x int) harness.Collector {
	return harness.Collector{Name: fmt.Sprintf("Beltway %d.%d", x, x), Make: func(h int) core.Config {
		return collectors.XX(x, s.opts.Env.Options(h))
	}}
}

func (s *Suite) xx100(x int) harness.Collector {
	name := fmt.Sprintf("Beltway %d.%d.100", x, x)
	if x >= 100 {
		name = "Beltway 100.100.100"
	}
	return harness.Collector{Name: name, Make: func(h int) core.Config {
		c := collectors.XX100(x, s.opts.Env.Options(h))
		c.Name = name
		return c
	}}
}

// MinHeaps returns the Appel minimum heap per benchmark — the paper's
// Table 1 baseline and the x-axis origin of every figure (see
// harness.MinHeaps).
func (s *Suite) MinHeaps() (map[string]int, error) {
	return harness.MinHeaps(s.exec.Engine(),
		engine.Key{Experiment: "minheap", Collector: "Appel"}, s.opts.Benchmarks, s.opts.Env)
}

// at is the measurement every figure shares: col on the benchmark in a
// heap of heapBytes under the suite's environment, untagged.
func (s *Suite) at(col harness.Collector, b *workload.Benchmark, heapBytes int) harness.RunSpec {
	return col.Spec("", harness.Bench(b), heapBytes, s.opts.Env)
}

// tightHeap is the heap size of the side tables: 1.5x the benchmark's
// minimum in whole frames, the tight-heap regime the paper optimizes for.
func (s *Suite) tightHeap(min int) int {
	frame := s.opts.Env.FrameBytes
	return min * 3 / 2 / frame * frame
}

// atTightHeap is every collector on every benchmark at its tightHeap,
// collector-major.
func (s *Suite) atTightHeap(cols []harness.Collector, mins map[string]int) []harness.RunSpec {
	var specs []harness.RunSpec
	for _, col := range cols {
		for _, b := range s.opts.Benchmarks {
			specs = append(specs, s.at(col, b, s.tightHeap(mins[b.Name])))
		}
	}
	return specs
}

// sweep runs the heap-size sweep behind a figure: the collectors over
// the suite's benchmarks from each one's minimum heap to 3x it.
func (s *Suite) sweep(cols []harness.Collector) ([][]harness.SweepPoint, error) {
	mins, err := s.MinHeaps()
	if err != nil {
		return nil, err
	}
	return harness.Sweep{
		Env:        s.opts.Env,
		Collectors: cols,
		Benchmarks: s.opts.Benchmarks,
		MinHeaps:   mins,
		Points:     s.opts.Points,
	}.Run(s.exec)
}
