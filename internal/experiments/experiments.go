// Package experiments regenerates every table and figure of the paper's
// evaluation (§4). Each Figure* method runs the required heap-size sweep
// and renders the same data series the paper plots; cmd/experiments is
// the command-line front end and bench_test.go exposes each experiment as
// a testing.B benchmark.
//
// Results are cached per (collector, benchmark, heap size) within a
// Suite, so figures sharing configurations (Appel appears in Figures 1,
// 5, 6, 8, 9 and 10) do not rerun identical measurements. Measurements
// execute through internal/engine: the cross-product behind each figure
// is submitted as independent jobs to a bounded worker pool (Opts.Jobs),
// optionally streaming a JSONL checkpoint that a restarted run resumes
// from. Results are reassembled in deterministic submission order, so
// tables are byte-identical regardless of worker count or completion
// order. The cache is a per-key singleflight: concurrent lookups of the
// same measurement wait for the one in flight instead of re-running it.
package experiments

import (
	"encoding/json"
	"fmt"
	"sync"
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

// Suite runs experiments with shared minimum-heap and result caches.
type Suite struct {
	opts Opts
	exec *harness.Executor

	mu    sync.Mutex
	mins  map[string]*minEntry
	cache map[cacheKey]*cacheEntry
}

type cacheKey struct {
	collector string
	benchmark string
	heapBytes int
}

// cacheEntry is a singleflight slot: the goroutine that inserts it owns
// the measurement and closes done when res/err are set; everyone else
// waits on done.
type cacheEntry struct {
	done chan struct{}
	res  *harness.Result
	err  error
}

// minEntry is the per-benchmark singleflight slot for minimum-heap
// searches.
type minEntry struct {
	done chan struct{}
	val  int
	err  error
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
		opts:  opts,
		cache: make(map[cacheKey]*cacheEntry),
		mins:  make(map[string]*minEntry),
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

// Env returns the suite's environment.
func (s *Suite) Env() harness.Env { return s.opts.Env }

// Engine returns the suite's execution engine, so callers can wire
// crash-safe shutdown (engine.FlushOnSignal) around a checkpointed sweep.
func (s *Suite) Engine() *engine.Engine { return s.exec.Engine() }

// Progress returns a snapshot of the engine's progress (jobs done/total,
// failures, ETA).
func (s *Suite) Progress() engine.Progress { return s.exec.Engine().Reporter().Snapshot() }

// Close releases the suite's checkpoint file, if any.
func (s *Suite) Close() error { return s.exec.Close() }

func (s *Suite) options(heapBytes int) collectors.Options {
	return collectors.Options{
		HeapBytes:    heapBytes,
		FrameBytes:   s.opts.Env.FrameBytes,
		PhysMemBytes: s.opts.Env.PhysMemBytes,
	}
}

// Named collector factories, matching the paper's configuration names.

func (s *Suite) appel() harness.Collector {
	return harness.Collector{Name: "Appel", Make: func(h int) core.Config {
		return generational.Appel(s.options(h))
	}}
}

func (s *Suite) fixed(pct int) harness.Collector {
	return harness.Collector{Name: fmt.Sprintf("Fixed %d", pct), Make: func(h int) core.Config {
		return generational.Fixed(pct, s.options(h))
	}}
}

func (s *Suite) xx(x int) harness.Collector {
	return harness.Collector{Name: fmt.Sprintf("Beltway %d.%d", x, x), Make: func(h int) core.Config {
		return collectors.XX(x, s.options(h))
	}}
}

func (s *Suite) xx100(x int) harness.Collector {
	name := fmt.Sprintf("Beltway %d.%d.100", x, x)
	if x >= 100 {
		name = "Beltway 100.100.100"
	}
	return harness.Collector{Name: name, Make: func(h int) core.Config {
		c := collectors.XX100(x, s.options(h))
		c.Name = name
		return c
	}}
}

// minPayload is the checkpoint payload of a minimum-heap search.
type minPayload struct {
	MinHeapBytes int `json:"min_heap_bytes"`
}

// MinHeaps returns the Appel minimum heap per benchmark — the paper's
// Table 1 baseline and the x-axis origin of every figure. Searches run at
// most once per benchmark (concurrent callers wait for the one in
// flight), in parallel across benchmarks, and are checkpointed like any
// other job so a resumed run skips them.
func (s *Suite) MinHeaps() (map[string]int, error) {
	var owned []*minEntry
	var ownedBenches []*workload.Benchmark
	var foreign []*minEntry
	s.mu.Lock()
	for _, b := range s.opts.Benchmarks {
		if e, ok := s.mins[b.Name]; ok {
			foreign = append(foreign, e)
			continue
		}
		e := &minEntry{done: make(chan struct{})}
		s.mins[b.Name] = e
		owned = append(owned, e)
		ownedBenches = append(ownedBenches, b)
	}
	s.mu.Unlock()

	if len(owned) > 0 {
		jobs := make([]engine.Job, len(owned))
		for i := range owned {
			b := ownedBenches[i]
			jobs[i] = engine.Job{
				Key: engine.Key{Experiment: "minheap", Collector: "Appel", Benchmark: b.Name},
				Run: func() (any, engine.Outcome, error) {
					m, err := harness.FindMinHeap(s.appel().Make, b, s.opts.Env)
					if err != nil {
						return nil, "", err
					}
					return minPayload{MinHeapBytes: m}, engine.OK, nil
				},
			}
		}
		recs, err := s.exec.Engine().Run(jobs)
		for i, e := range owned {
			switch {
			case err != nil:
				e.err = err
			case !recs[i].Outcome.Completed():
				e.err = fmt.Errorf("experiments: min heap search for %s: %s: %s",
					ownedBenches[i].Name, recs[i].Outcome, recs[i].Error)
			default:
				var p minPayload
				if uerr := json.Unmarshal(recs[i].Payload, &p); uerr != nil || p.MinHeapBytes <= 0 {
					e.err = fmt.Errorf("experiments: bad min heap record for %s: %v",
						ownedBenches[i].Name, uerr)
				} else {
					e.val = p.MinHeapBytes
				}
			}
			close(e.done)
		}
	}
	for _, e := range foreign {
		<-e.done
	}

	out := make(map[string]int, len(s.opts.Benchmarks))
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, b := range s.opts.Benchmarks {
		e := s.mins[b.Name]
		if e.err != nil {
			return nil, e.err
		}
		out[b.Name] = e.val
	}
	return out, nil
}

// runSpec is one measurement request for runMany. A nil env means the
// suite environment and makes the result cacheable; a non-nil env (e.g.
// the pretenuring ablation) bypasses the cache and must set tag so its
// checkpoint key cannot collide with suite-environment runs of the same
// triple.
type runSpec struct {
	tag       string
	col       harness.Collector
	work      harness.Workload
	heapBytes int
	env       *harness.Env
}

// runMany executes the given measurements through the engine, filling the
// suite cache, and returns one Result per spec in spec order. Results are
// always non-nil; a failed job yields a placeholder with Result.Failure
// set. Concurrent runMany calls requesting the same triple wait for the
// in-flight measurement instead of re-running it (each call completes all
// work it owns before waiting on work owned by others, so there is no
// deadlock).
func (s *Suite) runMany(specs []runSpec) ([]*harness.Result, error) {
	results := make([]*harness.Result, len(specs))

	var hspecs []harness.RunSpec
	var hslots []int           // spec index per hspec
	var hentries []*cacheEntry // cache slot per hspec (nil when uncached)
	type waiter struct {
		idx   int
		entry *cacheEntry
	}
	var waits []waiter

	s.mu.Lock()
	for i, sp := range specs {
		env := s.opts.Env
		var entry *cacheEntry
		if sp.env != nil {
			env = *sp.env
		} else {
			key := cacheKey{sp.col.Name, sp.work.Name(), sp.heapBytes}
			if e, ok := s.cache[key]; ok {
				waits = append(waits, waiter{i, e})
				continue
			}
			entry = &cacheEntry{done: make(chan struct{})}
			s.cache[key] = entry
		}
		hspecs = append(hspecs, harness.RunSpec{
			Key: engine.Key{
				Experiment: sp.tag,
				Collector:  sp.col.Name,
				Benchmark:  sp.work.Name(),
				HeapBytes:  sp.heapBytes,
			},
			Make:     sp.col.Make,
			Workload: sp.work,
			Env:      env,
		})
		hslots = append(hslots, i)
		hentries = append(hentries, entry)
	}
	s.mu.Unlock()

	if len(hspecs) > 0 {
		res, _, err := s.exec.RunAll(hspecs)
		if err != nil {
			for _, e := range hentries {
				if e != nil {
					e.err = err
					close(e.done)
				}
			}
			return nil, err
		}
		for k := range hspecs {
			results[hslots[k]] = res[k]
			if e := hentries[k]; e != nil {
				e.res = res[k]
				close(e.done)
			}
		}
	}
	for _, w := range waits {
		<-w.entry.done
		if w.entry.err != nil {
			return nil, w.entry.err
		}
		results[w.idx] = w.entry.res
	}
	return results, nil
}

// run executes one cached measurement.
func (s *Suite) run(col harness.Collector, bench *workload.Benchmark, heapBytes int) (*harness.Result, error) {
	rs, err := s.runMany([]runSpec{{col: col, work: harness.Bench(bench), heapBytes: heapBytes}})
	if err != nil {
		return nil, err
	}
	return rs[0], nil
}

// sweepCached is the cache-aware sweep used by every figure: the full
// (benchmark, collector, heap size) cross-product is submitted in one
// batch and reassembled in deterministic order.
func (s *Suite) sweepCached(cols []harness.Collector) ([][]harness.SweepPoint, error) {
	mins, err := s.MinHeaps()
	if err != nil {
		return nil, err
	}
	points := s.opts.Points
	out := make([][]harness.SweepPoint, len(cols))
	for ci, col := range cols {
		out[ci] = make([]harness.SweepPoint, points)
		for pi := range out[ci] {
			out[ci][pi] = harness.SweepPoint{Collector: col.Name}
		}
	}
	type slot struct {
		ci, pi, size, min int
	}
	var specs []runSpec
	var slots []slot
	for _, bench := range s.opts.Benchmarks {
		sizes := harness.HeapSizes(mins[bench.Name], 3, points, s.opts.Env.FrameBytes)
		for ci, col := range cols {
			for pi, size := range sizes {
				specs = append(specs, runSpec{col: col, work: harness.Bench(bench), heapBytes: size})
				slots = append(slots, slot{ci, pi, size, mins[bench.Name]})
			}
		}
	}
	results, err := s.runMany(specs)
	if err != nil {
		return nil, err
	}
	for k, r := range results {
		sl := slots[k]
		p := &out[sl.ci][sl.pi]
		p.HeapBytes = sl.size
		p.HeapRel = float64(sl.size) / float64(sl.min)
		p.Results = append(p.Results, r)
	}
	return out, nil
}
