package shard

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"

	"beltway/internal/core"
	"beltway/internal/heap"
	"beltway/internal/telemetry"
	"beltway/internal/vm"
)

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
}

// Plan is a schedule of rounds. A round of shard s runs Body on s's
// own state alone: lanes share nothing, and meet only at a CollectEvery
// rendezvous, where every live heap runs a global collection. That is
// all that orders one shard's rounds against another's, so the plan is
// the unit of determinism: Run and RunSerial execute it on N goroutines
// and on one, with identical per-shard outcomes.
type Plan struct {
	Rounds int
	// Body runs shard s's slice of round r. It must confine itself to
	// s — under Run other shards may be rounds ahead or behind.
	Body func(round int, s *Shard)
	// CollectEvery, when positive, forces a global collection at every
	// CollectEvery-th round boundary (all shards rendezvoused).
	CollectEvery int
}

// collectsAfter reports whether a global collection follows the round.
func (p Plan) collectsAfter(round int) bool {
	return p.CollectEvery > 0 && (round+1)%p.CollectEvery == 0
}

// Runtime owns N shards and coordinates their rounds and global
// collections.
type Runtime struct {
	opts   Options
	shards []*Shard
	sp     *safepoint

	roundStart []float64   // per-shard clock reading at round open
	costs      [][]float64 // costs[i][r]: lane i's clock advance over round r, under Run
	makespan   float64     // Σ rounds of max-over-shards round cost
	ran        bool        // a plan has been run (a runtime runs one)
}

// New builds a sharded runtime over the template configuration: every
// shard gets a private heap of cfg's full HeapBytes (scale-out — N
// mutators on N times the single-mutator run's machine).
func New(cfg core.Config, opts Options) (*Runtime, error) {
	if opts.Shards < 1 {
		return nil, fmt.Errorf("shard: need at least 1 shard, have %d", opts.Shards)
	}
	rt := &Runtime{
		opts:       opts,
		sp:         newSafepoint(opts.Shards),
		roundStart: make([]float64, opts.Shards),
	}
	for i := 0; i < opts.Shards; i++ {
		h, err := core.New(cfg, heap.NewRegistry())
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		s := &Shard{
			ID:   i,
			Heap: h,
			M:    vm.New(h),
			Rng:  takeRng(StreamSeed(opts.Seed, i)),
		}
		if opts.Validate {
			s.V = s.M.EnableValidation()
		}
		if opts.Telemetry {
			// Merged, not set: the validator's check is a PostGC hook.
			s.Tele = telemetry.NewRun(h.Clock())
			h.SetHooks(h.Hooks().Merge(s.Tele.Hooks()))
		}
		rt.shards = append(rt.shards, s)
	}
	return rt, nil
}

// Shards returns the runtime's shards in id order.
func (rt *Runtime) Shards() []*Shard { return rt.shards }

// Makespan returns the simulated elapsed time of the run so far, in
// cost units: the sum over rounds of the slowest shard's round cost,
// plus the slowest shard's share of every global collection (shard
// heaps are disjoint, so the simulated machine collects them side by
// side). This is the wall clock of the simulated N-core machine, and
// the denominator of every scaling claim — the host's core count is
// irrelevant to it.
func (rt *Runtime) Makespan() float64 { return rt.makespan }

// Waits returns how many times a lane of a finished Run blocked for
// another at a global collection it was not the last to arrive at:
// (lanes-1) per CollectEvery rendezvous. It is a count, not a time — a
// plan whose lanes collect alone reads 0 on any host — so tests can hold
// the schedule to "waits only to collect" without a stopwatch.
func (rt *Runtime) Waits() int { return rt.sp.waits }

// Run executes the plan on one goroutine per shard. Lanes share
// nothing, and meet only at a CollectEvery rendezvous (see safepoint):
// between global collections a lane takes no lock and never waits for
// another. What RunSerial's barrier does at every boundary happens here
// where it is first needed, with the same operands in the same order:
//
//   - makespan: each lane notes its clock's advance over every round;
//     the notes are folded, += the slowest lane's round by round,
//     before each global collection adds its own share and when the
//     plan ends — every float sum is one barrier() makes;
//   - a global collection is a full rendezvous: the last lane to
//     arrive runs it, each live heap on a goroutine of its own, while
//     the others are parked.
func (rt *Runtime) Run(p Plan) error {
	if err := rt.checkPlan(p); err != nil {
		return err
	}
	rt.openRoundClocks()
	rt.costs = make([][]float64, len(rt.shards))
	folded := 0 // rounds already in the makespan
	fold := func(rounds int) {
		for ; folded < rounds; folded++ {
			var maxCost float64
			for _, c := range rt.costs {
				if d := c[folded]; d > maxCost {
					maxCost = d
				}
			}
			rt.makespan += maxCost
		}
	}
	var wg sync.WaitGroup
	for i, s := range rt.shards {
		cost := takeCosts(p.Rounds)
		rt.costs[i] = cost
		wg.Add(1)
		go func(s *Shard) {
			defer wg.Done()
			clock := s.Heap.Clock()
			for r := 0; r < p.Rounds; r++ {
				s.runRound(r, p.Body)
				now := clock.Now()
				cost[r] = now - rt.roundStart[s.ID]
				rt.roundStart[s.ID] = now
				if p.collectsAfter(r) {
					rt.sp.rendezvous(func() {
						fold(r + 1)
						rt.collectAll(r, true)
						rt.openRoundClocks()
					})
				}
			}
		}(s)
	}
	wg.Wait()
	fold(p.Rounds)
	return nil
}

// RunSerial executes the same plan on the calling goroutine, and starts
// no other: every round runs the shards in ascending id order, then the
// barrier work. Because a round body is confined to its shard's own
// state, RunSerial's per-shard outcomes are bit-identical to Run's — it
// is the reference schedule the sharded oracle diffs against.
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
	if rt.ran {
		return errors.New("shard: runtime already ran a plan")
	}
	rt.ran = true
	return nil
}

func (rt *Runtime) openRoundClocks() {
	for i, s := range rt.shards {
		rt.roundStart[i] = s.Heap.Clock().Now()
	}
}

// slowest returns the largest clock advance of any shard since the
// round clocks were last opened.
func (rt *Runtime) slowest() float64 {
	var maxCost float64
	for i, s := range rt.shards {
		if d := s.Heap.Clock().Now() - rt.roundStart[i]; d > maxCost {
			maxCost = d
		}
	}
	return maxCost
}

// barrier performs RunSerial's work at one round boundary: the round's
// share of the makespan, and a global collection when one is due. Run
// does the same work in the same order, but only where something
// depends on it.
func (rt *Runtime) barrier(p Plan, round int) {
	rt.makespan += rt.slowest()
	if p.collectsAfter(round) {
		rt.collectAll(round, false)
	}
	rt.openRoundClocks()
}

// collectAll runs the rendezvoused global collection after a round:
// every live shard's heap runs the collection its own policy chooses —
// side by side, a goroutine each, under Run; one after another on the
// calling goroutine under RunSerial. The heaps are disjoint, so the
// outcomes are the same either way, and the collection costs the
// makespan what it costs the slowest shard.
func (rt *Runtime) collectAll(round int, sideBySide bool) {
	rt.openRoundClocks()
	var wg sync.WaitGroup
	for _, s := range rt.shards {
		switch {
		case s.Dead():
		case sideBySide:
			wg.Add(1)
			go func(s *Shard) {
				defer wg.Done()
				s.collect(round)
			}(s)
		default:
			s.collect(round)
		}
	}
	wg.Wait()
	rt.makespan += rt.slowest()
}

// Release hands every shard's heap (core.Heap.Release), flight recorder
// ring (telemetry.Run.Release), RNG and round costs to the next run in
// the process.
// Call it once the clocks, MergedTelemetry and any validator fingerprints
// have been read: afterwards the shard heaps fault on every access, the
// recorders hold no events and Rng is nil.
func (rt *Runtime) Release() {
	for _, s := range rt.shards {
		if s.Tele != nil {
			s.Tele.Release()
		}
		s.Heap.Release()
		if s.Rng != nil {
			rngs.Put(s.Rng)
			s.Rng = nil
		}
	}
	for _, c := range rt.costs {
		costBufs.Put(c)
	}
	rt.costs = nil
}

// rngs holds the RNGs of released shards. A math/rand source is 4.9 KB
// of state, and re-seeding one draws exactly what a new one seeded alike
// would, so a run takes a released one when there is one.
var rngs heap.FreeList[*rand.Rand]

// takeRng returns an RNG seeded with seed, recycled when one is free.
func takeRng(seed int64) *rand.Rand {
	if r, ok := rngs.Take(); ok {
		r.Seed(seed)
		return r
	}
	return rand.New(rand.NewSource(seed))
}

// costBufs holds the round-cost slices of released runtimes, one a lane.
var costBufs heap.FreeList[[]float64]

// takeCosts returns a slice of n round costs, recycled when a free one is
// long enough. Its entries are stale: a lane writes each before fold
// reads it.
func takeCosts(n int) []float64 {
	if c, ok := costBufs.Take(); ok && cap(c) >= n {
		return c[:n]
	}
	return make([]float64, n)
}

// MergedTelemetry merges every shard's telemetry snapshot into one
// (nil when the runtime was built without Options.Telemetry). Each
// shard kept a private flight recorder during the run — single-owner,
// no synchronization on the hot path — and the merge interleaves the
// events by time.
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
