package shard

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"

	"beltway/internal/core"
	"beltway/internal/engine"
	"beltway/internal/gc"
	"beltway/internal/heap"
	"beltway/internal/stats"
	"beltway/internal/telemetry"
	"beltway/internal/vm"
)

// pollInterval is the cost-unit spacing between polls (Shard.Poll).
// Roughly a few hundred mutator operations at the default cost model.
const pollInterval = 256.0

// Options parameterizes a sharded runtime.
type Options struct {
	// Shards is the number of mutator lanes (>= 1).
	Shards int
	// Seed is the base workload seed; shard i draws its private RNG
	// stream from StreamSeed(Seed, i).
	Seed int64
	// Telemetry attaches a private telemetry.Run to every shard.
	Telemetry bool
	// Validate attaches the shadow-graph validator to every shard
	// (oracle mode; much slower).
	Validate bool
	// GCWorkers bounds the worker pool for rendezvoused global
	// collections: 0 fans one worker out per shard (parallel trace over
	// disjoint shard heaps, reusing internal/engine), 1 collects the
	// shards back to back on one goroutine (classic STW).
	GCWorkers int
}

// Plan is a schedule of rounds. A round of shard s runs Body on s's
// own state and may read, through Consume, what every shard published
// in earlier rounds, merged in (round, ascending shard) order; every
// CollectEvery-th round boundary is a rendezvoused global collection.
// That is all that orders one shard's rounds against another's, so the
// plan is the unit of determinism: Run and RunSerial execute it on N
// goroutines and on one, with identical per-shard outcomes.
type Plan struct {
	Rounds int
	// Body runs shard s's slice of round r. It must confine itself to
	// s and to Consume/Publish — under Run other shards may be rounds
	// ahead or behind; it may call s.Poll at convenient points.
	Body func(round int, s *Shard)
	// CollectEvery, when positive, forces a global collection at every
	// CollectEvery-th round boundary (all shards rendezvoused).
	CollectEvery int
}

// collectsAfter reports whether a global collection follows the round.
func (p Plan) collectsAfter(round int) bool {
	return p.CollectEvery > 0 && (round+1)%p.CollectEvery == 0
}

// Runtime owns N shards and coordinates their rounds, exchange merges
// and global collections.
type Runtime struct {
	opts      Options
	shards    []*Shard
	sp        *safepoint
	committed *committedExchange

	roundStart []float64 // per-shard clock reading at round open
	makespan   float64   // Σ rounds of max-over-shards round cost
	gcMakespan float64   // portion of makespan spent in global collections
	rounds     int
}

// New builds a sharded runtime over the template configuration: every
// shard gets a private heap of cfg's full HeapBytes (scale-out — N
// mutators on N times the single-mutator run's machine).
func New(cfg core.Config, opts Options) (*Runtime, error) {
	if opts.Shards < 1 {
		return nil, fmt.Errorf("shard: need at least 1 shard, have %d", opts.Shards)
	}
	if opts.Shards >= 1<<(32-shardFrameBits) {
		return nil, fmt.Errorf("shard: %d shards overflow the routing fold", opts.Shards)
	}
	rt := &Runtime{
		opts:       opts,
		sp:         newSafepoint(opts.Shards),
		committed:  newCommittedExchange(),
		roundStart: make([]float64, opts.Shards),
	}
	for i := 0; i < opts.Shards; i++ {
		h, err := core.New(cfg, heap.NewRegistry())
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		s := &Shard{
			ID:      i,
			Heap:    h,
			M:       vm.New(h),
			Rng:     rand.New(rand.NewSource(StreamSeed(opts.Seed, i))),
			rt:      rt,
			pending: newPendingExchange(),
			cursors: map[int]int{},
		}
		if opts.Validate {
			s.V = s.M.EnableValidation()
		}
		if opts.Telemetry {
			s.Tele = telemetry.NewRun(h.Clock())
			h.SetHooks(s.Tele.Hooks())
		}
		rt.shards = append(rt.shards, s)
	}
	return rt, nil
}

// Shards returns the runtime's shards in id order.
func (rt *Runtime) Shards() []*Shard { return rt.shards }

// Makespan returns the simulated elapsed time of the run so far, in
// cost units: the sum over rounds of the slowest shard's round cost,
// plus global-collection time (max over shards when the collection
// fanned out over parallel workers, the sum when it ran STW on one).
// This is the wall clock of the simulated N-core machine, and the
// denominator of every scaling claim — the host's core count is
// irrelevant to it.
func (rt *Runtime) Makespan() float64 { return rt.makespan }

// GCMakespan returns the portion of Makespan spent in rendezvoused
// global collections.
func (rt *Runtime) GCMakespan() float64 { return rt.gcMakespan }

// RoutedEntries returns the number of routing-table entries merged
// from per-shard tails into the committed exchange table.
func (rt *Runtime) RoutedEntries() int { return rt.committed.merged }

// Waits returns how many times a lane of a finished Run blocked for
// another: at the first Consume of a round the others had not all
// reached, or at a global collection it was not the last to arrive at.
// It is a count, not a time — a plan whose lanes exchange nothing and
// collect alone reads 0 on any host — so tests can hold the schedule to
// "waits only on a dependency" without a stopwatch.
func (rt *Runtime) Waits() int { return rt.sp.waits }

// Run executes the plan on one goroutine per shard, and a lane blocks
// only on a data dependency (see safepoint): the rounds of a plan that
// neither consumes nor collects globally run end to end without one
// lane ever waiting for another. What RunSerial's barrier does at every
// boundary happens here where it is first needed, with the same
// operands in the same order:
//
//   - makespan: each lane notes its clock's advance over every round;
//     the notes are folded, += the slowest lane's round by round,
//     before each global collection adds its own share and when the
//     plan ends — every float sum is one barrier() makes;
//   - exchange: ending a round seals what it staged; the sealed tails
//     are merged before the first Consume that may see them, and the
//     rest when the plan ends;
//   - a global collection stays a full rendezvous: the last lane to
//     arrive runs it while the others are parked.
func (rt *Runtime) Run(p Plan) error {
	if err := rt.checkPlan(p); err != nil {
		return err
	}
	rt.openRoundClocks()
	costs := make([][]float64, len(rt.shards)) // costs[i][r]: lane i's clock advance over round r
	folded := 0                                // rounds already in the makespan
	fold := func(rounds int) {
		for ; folded < rounds; folded++ {
			var maxCost float64
			for _, c := range costs {
				if d := c[folded]; d > maxCost {
					maxCost = d
				}
			}
			rt.makespan += maxCost
		}
	}
	// What a global collection panicked with, on whichever lane's
	// goroutine ran it: every lane stops at that boundary and the panic
	// is raised again below, on the caller's goroutine, where the
	// harness and the engine recover it.
	var gcPanic any
	var wg sync.WaitGroup
	for i, s := range rt.shards {
		cost := make([]float64, p.Rounds)
		costs[i] = cost
		wg.Add(1)
		go func(s *Shard) {
			defer wg.Done()
			clock := s.Heap.Clock()
			for r := 0; r < p.Rounds && gcPanic == nil; r++ {
				s.round = r
				s.runRound(r, p.Body)
				now := clock.Now()
				cost[r] = now - rt.roundStart[s.ID]
				rt.roundStart[s.ID] = now
				rt.sp.complete(s.ID, s.pending.seal(r))
				if p.collectsAfter(r) {
					rt.sp.rendezvous(func() {
						defer func() { gcPanic = recover() }()
						fold(r + 1)
						rt.collectAll()
						rt.openRoundClocks()
					})
				}
			}
		}(s)
	}
	wg.Wait()
	if gcPanic != nil {
		panic(gcPanic)
	}
	fold(p.Rounds)
	rt.sp.syncExchange(p.Rounds, rt.committed)
	rt.rounds = p.Rounds
	return nil
}

// RunSerial executes the same plan on the calling goroutine: every
// round runs the shards in ascending id order, then the barrier work.
// Because a round body is confined to its shard's own state and to what
// earlier rounds committed, RunSerial's per-shard outcomes are
// bit-identical to Run's — it is the reference schedule the sharded
// oracle diffs against.
func (rt *Runtime) RunSerial(p Plan) error {
	if err := rt.checkPlan(p); err != nil {
		return err
	}
	rt.openRoundClocks()
	for r := 0; r < p.Rounds; r++ {
		for _, s := range rt.shards {
			s.runRound(r, p.Body)
		}
		rt.barrier(p, r)
	}
	return nil
}

func (rt *Runtime) checkPlan(p Plan) error {
	if p.Rounds < 0 || p.Body == nil {
		return errors.New("shard: plan needs a body and a non-negative round count")
	}
	if rt.rounds > 0 {
		return errors.New("shard: runtime already ran a plan")
	}
	return nil
}

func (rt *Runtime) openRoundClocks() {
	for i, s := range rt.shards {
		rt.roundStart[i] = s.Heap.Clock().Now()
	}
}

// barrier performs RunSerial's work at one round boundary: the round's
// share of the makespan, the exchange merge, a global collection when
// one is due. Run does the same work in the same order, but only where
// something depends on it.
func (rt *Runtime) barrier(p Plan, round int) {
	rt.rounds++
	var maxCost float64
	for i, s := range rt.shards {
		if d := s.Heap.Clock().Now() - rt.roundStart[i]; d > maxCost {
			maxCost = d
		}
	}
	rt.makespan += maxCost
	// Merge exchange tails in ascending shard order: the committed
	// state after the barrier is schedule-independent.
	for _, s := range rt.shards {
		rt.committed.merge(&s.pending.tail)
	}
	if p.collectsAfter(round) {
		rt.collectAll()
	}
	rt.openRoundClocks()
}

// collectAll runs a rendezvoused global collection: every live shard's
// heap runs the collection its own policy chooses, either back to back on the calling goroutine
// (GCWorkers == 1: classic stop-the-world) or fanned out over
// internal/engine's bounded workers (shard heaps are disjoint, so the
// condemned-set traces are embarrassingly parallel). Heap outcomes are
// identical either way; only the makespan attribution differs (sum for
// STW, max for the fan-out), and that is policy, not semantics.
func (rt *Runtime) collectAll() {
	var live []*Shard
	for _, s := range rt.shards {
		if !s.dead {
			live = append(live, s)
		}
	}
	if len(live) == 0 {
		return
	}
	starts := make([]float64, len(live))
	for i, s := range live {
		starts[i] = s.Heap.Clock().Now()
	}
	workers := rt.opts.GCWorkers
	if workers == 0 {
		workers = len(live)
	}
	if workers == 1 || len(live) == 1 {
		for _, s := range live {
			rt.noteCollectErr(s, s.Heap.Collect(false))
		}
		var sum float64
		for i, s := range live {
			sum += s.Heap.Clock().Now() - starts[i]
		}
		rt.makespan += sum
		rt.gcMakespan += sum
		return
	}
	eng := engine.New(engine.Config{Workers: workers})
	jobs := make([]engine.Job, len(live))
	for i, s := range live {
		s := s
		jobs[i] = engine.Job{
			Key: engine.Key{Experiment: "shard-gc", Collector: s.Heap.Name(), HeapBytes: s.ID},
			Run: func() (any, engine.Outcome, error) {
				if err := s.Heap.Collect(false); err != nil {
					if errors.Is(err, gc.ErrOutOfMemory) {
						return nil, engine.OOM, nil
					}
					return nil, engine.Errored, err
				}
				return nil, engine.OK, nil
			},
		}
	}
	recs, err := eng.Run(jobs)
	_ = eng.Close()
	if err != nil {
		// Engine-level failure (not a job failure) — fall back to the
		// serial path so the run still completes deterministically.
		for _, s := range live {
			rt.noteCollectErr(s, s.Heap.Collect(false))
		}
	} else {
		for i, rec := range recs {
			switch rec.Outcome {
			case engine.OOM:
				rt.noteCollectErr(live[i], gc.ErrOutOfMemory)
			case engine.OK:
			default:
				live[i].dead = true
				live[i].failure = "collect: " + rec.Error
			}
		}
	}
	var maxDelta float64
	for i, s := range live {
		if d := s.Heap.Clock().Now() - starts[i]; d > maxDelta {
			maxDelta = d
		}
	}
	rt.makespan += maxDelta
	rt.gcMakespan += maxDelta
}

func (rt *Runtime) noteCollectErr(s *Shard, err error) {
	if err == nil {
		return
	}
	if errors.Is(err, gc.ErrOutOfMemory) {
		s.dead = true
		s.oomErr = err
		return
	}
	s.dead = true
	s.failure = "collect: " + err.Error()
}

// ShardStats is one shard's end-of-run measurement.
type ShardStats struct {
	ID          int
	TotalTime   float64 // the shard's own cost-unit timeline
	GCTime      float64
	MaxPause    float64
	Pauses      []stats.Pause
	Counters    stats.Counters
	Collections uint64
	Polls       uint64
	Published   uint64
	Consumed    uint64
	OOM         bool
	Aborted     bool // stopped by the clock's cost budget
	Failure     string
}

// Result aggregates a finished run.
type Result struct {
	Shards int
	Rounds int
	// Makespan is the simulated elapsed time (see Runtime.Makespan);
	// GCMakespan the share of it in rendezvoused global collections.
	Makespan   float64
	GCMakespan float64
	// TotalCost is the aggregate work done: Σ per-shard clock totals.
	TotalCost      float64
	BytesAllocated uint64
	BytesCopied    uint64
	Collections    uint64
	RoutedEntries  int
	OOM            bool // any shard ended in OOM
	PerShard       []ShardStats
}

// Throughput returns aggregate allocation+collection throughput:
// bytes allocated plus bytes copied per cost unit of simulated
// elapsed time. This is the scaling metric: N shards do ~N× the work
// in ~1× the makespan.
func (r *Result) Throughput() float64 {
	if r.Makespan <= 0 {
		return 0
	}
	return float64(r.BytesAllocated+r.BytesCopied) / r.Makespan
}

// Result snapshots the runtime's aggregate measurement.
func (rt *Runtime) Result() *Result {
	res := &Result{
		Shards:        len(rt.shards),
		Rounds:        rt.rounds,
		Makespan:      rt.makespan,
		GCMakespan:    rt.gcMakespan,
		RoutedEntries: rt.committed.merged,
	}
	for _, s := range rt.shards {
		c := s.Heap.Clock()
		st := ShardStats{
			ID:          s.ID,
			TotalTime:   c.TotalTime(),
			GCTime:      c.GCTime(),
			MaxPause:    c.MaxPause(),
			Pauses:      c.Pauses(),
			Counters:    c.Counters,
			Collections: s.Heap.Collections(),
			Polls:       s.polls,
			Published:   s.pubs,
			Consumed:    s.cons,
			OOM:         s.oomErr != nil,
			Aborted:     s.aborted,
			Failure:     s.failure,
		}
		res.PerShard = append(res.PerShard, st)
		res.TotalCost += st.TotalTime
		res.BytesAllocated += st.Counters.BytesAllocated
		res.BytesCopied += st.Counters.BytesCopied
		res.Collections += st.Collections
		if st.OOM {
			res.OOM = true
		}
	}
	return res
}

// Release hands every shard's simulated heap back to the process-wide
// slab pool (heap.Space.Release). Call it once Result, MergedTelemetry
// and any validator fingerprints have been taken: afterwards the shard
// heaps fault on every access.
func (rt *Runtime) Release() {
	for _, s := range rt.shards {
		s.Heap.Space().Release()
	}
}

// MergedTelemetry merges every shard's telemetry snapshot into one
// (nil when the runtime was built without Options.Telemetry). Each
// shard kept a private flight recorder and registry during the run —
// single-owner, no synchronization on the hot path — and the merge is
// commutative on metrics, time-ordered on events.
func (rt *Runtime) MergedTelemetry() *telemetry.RunSnapshot {
	if !rt.opts.Telemetry {
		return nil
	}
	snaps := make([]*telemetry.RunSnapshot, len(rt.shards))
	for i, s := range rt.shards {
		snaps[i] = s.Tele.Snapshot()
	}
	return telemetry.MergeRunSnapshots(snaps...)
}
