// Package beltway is a Go reproduction of "Beltway: Getting Around
// Garbage Collection Gridlock" (Blackburn, Jones, McKinley, Moss,
// PLDI 2002): a garbage collection framework that generalizes copying
// collection with belts of FIFO increments, and — via configuration
// alone — reproduces semi-space, Appel-style generational, older-first
// and older-first-mix collectors as well as the paper's new Beltway X.X
// and Beltway X.X.100 designs.
//
// The collectors manage a simulated word-addressed heap (Go's own GC
// manages Go values, so the managed heap is built from first principles:
// frames, object headers, bump allocation, Cheney copying); a
// deterministic cost model stands in for wall-clock time. See DESIGN.md
// for the architecture and EXPERIMENTS.md for paper-vs-measured results.
//
// Quick start:
//
//	types := beltway.NewTypes()
//	col, _ := beltway.New(beltway.XX100(25, beltway.Options{
//		HeapBytes:  64 << 20,
//		FrameBytes: 16 << 10,
//	}), types)
//	m := beltway.NewMutator(col)
//	node := types.DefineScalar("node", 1, 2)
//	_ = m.Run(func() {
//		h := m.Alloc(node, 0)
//		m.SetData(h, 0, 42)
//	})
//
// The examples/ directory contains complete programs, cmd/beltway is the
// command-line runner, and cmd/experiments regenerates every table and
// figure of the paper's evaluation.
package beltway

import (
	"io"

	"beltway/internal/collectors"
	"beltway/internal/core"
	"beltway/internal/gc"
	"beltway/internal/harness"
	"beltway/internal/heap"
	"beltway/internal/mmu"
	"beltway/internal/stats"
	"beltway/internal/trace"
	"beltway/internal/vm"
	"beltway/internal/workload"
)

// Core configuration types.
type (
	// Config describes a complete Beltway collector configuration.
	Config = core.Config
	// BeltSpec configures one belt of a Config.
	BeltSpec = core.BeltSpec
	// Options carries heap size, frame size and modelled physical memory.
	Options = core.Options
	// BarrierKind selects the frame or boundary write barrier.
	BarrierKind = core.BarrierKind
	// CostModel maps mutator and collector work to abstract time.
	CostModel = stats.CostModel
)

// Barrier kinds.
const (
	FrameBarrier    = core.FrameBarrier
	BoundaryBarrier = core.BoundaryBarrier
)

// Runtime types.
type (
	// Collector is a configured Beltway heap (implements the collector
	// interface shared with the generational baselines).
	Collector = core.Heap
	// Types is the object-layout registry shared by a collector and its
	// mutator.
	Types = heap.Registry
	// TypeDesc describes one object layout.
	TypeDesc = heap.TypeDesc
	// Mutator is the handle-based API for building and mutating object
	// graphs on a collector.
	Mutator = vm.Mutator
	// Handle is a stable, collection-safe object reference.
	Handle = gc.Handle
	// Addr is a raw simulated heap address (advanced use only; addresses
	// move at collections).
	Addr = heap.Addr
)

// NilHandle is the empty Handle.
const NilHandle = gc.NilHandle

// ErrOutOfMemory is the sentinel wrapped by allocation failures; use
// errors.Is to detect runs that did not fit their heap.
var ErrOutOfMemory = gc.ErrOutOfMemory

// NewTypes creates an empty type registry.
func NewTypes() *Types { return heap.NewRegistry() }

// New instantiates a collector from a configuration.
func New(cfg Config, types *Types) (*Collector, error) { return core.New(cfg, types) }

// NewMutator wraps a collector in the mutator facade.
func NewMutator(c *Collector) *Mutator { return vm.New(c) }

// DefaultCosts returns the calibrated default cost model.
func DefaultCosts() CostModel { return stats.DefaultCosts() }

// Preset configurations (paper §3.1, §3.2). Percentages are increment
// sizes relative to usable memory.

// SemiSpace returns the Beltway semi-space configuration (BSS).
func SemiSpace(o Options) Config { return collectors.BSS(o) }

// BA2 returns Beltway 100.100, the Appel-style two-generation
// configuration of Beltway.
func BA2(o Options) Config { return collectors.BA2(o) }

// XX returns Beltway X.X: incremental generational, not complete.
func XX(x int, o Options) Config { return collectors.XX(x, o) }

// XX100 returns Beltway X.X.100: incremental and complete.
func XX100(x int, o Options) Config { return collectors.XX100(x, o) }

// XY returns the two-belt Beltway with distinct increment sizes.
func XY(x, y int, o Options) Config { return collectors.XY(x, y, o) }

// XXMOS returns Beltway X.X.MOS: the paper's future-work configuration
// with a Mature Object Space (train algorithm) top belt — complete
// without full-heap collections.
func XXMOS(x int, o Options) Config { return collectors.XXMOS(x, o) }

// WithCardBarrier switches a configuration to card marking instead of
// remembered sets (the alternative §5 discusses).
func WithCardBarrier(cfg Config) Config { return collectors.WithCardBarrier(cfg) }

// OlderFirst returns the BOF (windowed older-first) configuration.
func OlderFirst(window int, o Options) Config { return collectors.BOF(window, o) }

// OlderFirstMix returns the BOFM configuration.
func OlderFirstMix(incr int, o Options) Config { return collectors.BOFM(incr, o) }

// Appel returns the paper's baseline Appel-style generational collector
// (boundary barrier, fixed half-heap reserve).
func Appel(o Options) Config { return collectors.Appel(o) }

// FixedNursery returns the classic fixed-size-nursery generational
// baseline.
func FixedNursery(pct int, o Options) Config { return collectors.Fixed(pct, o) }

// ParseConfig builds a configuration from its command-line spelling
// ("25.25.100", "appel", "bof:10", ...).
func ParseConfig(spec string, o Options) (Config, error) { return collectors.Parse(spec, o) }

// Workloads and measurement.

type (
	// Benchmark is one of the six SPEC-analog workloads.
	Benchmark = workload.Benchmark
	// Env fixes frame size, physical memory, scale and seed for runs.
	Env = harness.Env
	// Result is one measured run.
	Result = harness.Result
	// MMUCurve is a minimum-mutator-utilization curve.
	MMUCurve = mmu.Curve
)

// Benchmarks returns the six-benchmark suite in paper order.
func Benchmarks() []*Benchmark { return workload.All() }

// GetBenchmark returns a benchmark by name ("jess", "raytrace", "db",
// "javac", "jack", "pseudojbb"), or nil.
func GetBenchmark(name string) *Benchmark { return workload.Get(name) }

// EnvForScale returns the standard environment for a workload scale.
func EnvForScale(scale float64) Env { return harness.EnvForScale(scale) }

// Run executes a benchmark on a configuration and reports the
// measurements.
func Run(cfg Config, b *Benchmark, env Env) (*Result, error) {
	return harness.RunOne(cfg, b, env)
}

// FindMinHeap binary-searches the smallest completing heap size for a
// configuration family.
func FindMinHeap(mk func(heapBytes int) Config, b *Benchmark, env Env) (int, error) {
	return harness.FindMinHeap(mk, b, env)
}

// Trace is a recorded mutator event stream that can be replayed against
// any collector configuration (trace-driven GC evaluation).
type Trace = trace.Trace

// NewTrace returns an empty trace; attach it with Mutator.SetRecorder.
func NewTrace() *Trace { return trace.NewTrace() }

// ReplayTrace executes a recorded trace against a fresh mutator. A
// corrupt trace is an error starting "trace: ", never a panic: a record
// malformed in itself, a handle that drifts from the recording, or a slot
// or data index past the object it names. An allocation the collector
// refuses is the collector's error, out of memory included.
func ReplayTrace(t *Trace, m *Mutator) error { return trace.Replay(t, m) }

// ReadTrace deserializes a trace written with Trace.WriteTo.
func ReadTrace(r io.Reader) (*Trace, error) { return trace.ReadFrom(r) }

// ComputeMMU samples a result's minimum-mutator-utilization curve.
func ComputeMMU(r *Result, points int) MMUCurve { return r.MMU(points) }
