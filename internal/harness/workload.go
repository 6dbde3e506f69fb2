package harness

import (
	"fmt"
	"slices"

	"beltway/internal/heap"
	"beltway/internal/policy"
	"beltway/internal/server"
	"beltway/internal/shard"
	"beltway/internal/workload"
)

// Workload is what a run executes on its lanes. It has exactly two
// implementations, Bench and Server, and says only what differs between
// them; everything else about a run belongs to Run.
type Workload interface {
	// Name is the run's Result.Benchmark.
	Name() string
	// seed is the base seed of the lanes' streams: lane i draws from
	// shard.StreamSeed(seed, i), whose lane 0 is the identity.
	seed(env Env) int64
	// bind binds the workload to the run's lanes. ctrl is the run's
	// adaptive controller, nil when it has none.
	bind(lanes []*shard.Shard, env Env, ctrl *policy.Controller) (bound, error)
}

// bound is a workload bound to one run's lanes.
type bound interface {
	// plan is the rounds the lanes execute.
	plan() shard.Plan
	// report is, for a workload that measures more than the clocks do,
	// the fold of the lanes' reports into Result.Server (nil otherwise).
	report() *server.Report
	// release hands the binding, with its storage, to the next run;
	// report first.
	release()
}

// Bench is the workload of the paper's evaluation: every lane runs the
// whole benchmark body once, so N lanes are N independent program
// instances on a simulated N-core machine. Collections stay lane-local
// and concurrent; a multi-lane run ends with one rendezvoused global
// collection at the final barrier (the safepoint-coordinated path).
func Bench(b *workload.Benchmark) Workload { return benchWorkload{b} }

type benchWorkload struct{ b *workload.Benchmark }

func (w benchWorkload) Name() string       { return w.b.Name }
func (w benchWorkload) seed(env Env) int64 { return env.Seed }

func (w benchWorkload) bind(lanes []*shard.Shard, env Env, _ *policy.Controller) (bound, error) {
	if env.Scale <= 0 {
		return nil, fmt.Errorf("workload: non-positive scale %v", env.Scale)
	}
	br, ok := benchRuns.Take()
	if !ok {
		br = &benchRun{}
		br.body = br.run
	}
	br.b, br.env = w.b, env
	br.ctxs = slices.Grow(br.ctxs[:0], len(lanes))[:len(lanes)]
	return br, nil
}

// benchRun is a Bench workload bound to a run: each lane's program
// context, which keeps the arena the lane's tables are carved from, and
// the round body, made once. Released ones wait on benchRuns for the next
// run.
type benchRun struct {
	b    *workload.Benchmark
	env  Env
	ctxs []workload.Ctx
	body func(round int, s *shard.Shard) // br.run
}

var benchRuns heap.FreeList[*benchRun]

func (br *benchRun) plan() shard.Plan {
	p := shard.Plan{Rounds: 1, Body: br.body}
	if len(br.ctxs) > 1 {
		p.CollectEvery = 1
	}
	return p
}

func (br *benchRun) run(_ int, s *shard.Shard) {
	c := &br.ctxs[s.ID] // set field by field: the context keeps its arena
	c.M, c.Types, c.Rng = s.M, s.Heap.Space().Types, s.Rng
	c.Scale, c.Pretenure = br.env.Scale, br.env.Pretenure
	br.b.Body(c)
}

func (br *benchRun) report() *server.Report { return nil }

func (br *benchRun) release() {
	for i := range br.ctxs {
		br.ctxs[i].Release()
	}
	benchRuns.Put(br)
}

// Server is the request/response workload (internal/server): every lane
// serves the full request script against a private store, its stream
// seeded from the config's own seed (Env.Seed plays no part). Rounds are
// arrival batches, collections stay lane-local, so a request's latency is a pure function of its own
// lane's stream; one report covers the lanes in lane order
// (server.ReportLoops) and the SLO verdict is evaluated on it.
func Server(sc server.Config, slo server.SLO) Workload { return serverWorkload{sc, slo} }

type serverWorkload struct {
	cfg server.Config
	slo server.SLO
}

func (w serverWorkload) Name() string   { return "server" }
func (w serverWorkload) seed(Env) int64 { return w.cfg.Seed }

func (w serverWorkload) bind(lanes []*shard.Shard, _ Env, ctrl *policy.Controller) (bound, error) {
	sr, ok := serverRuns.Take()
	if !ok {
		sr = &serverRun{}
		sr.body = sr.run
	}
	sr.slo, sr.rounds = w.slo, w.cfg.Batches()
	for len(sr.loops) < len(lanes) {
		sr.loops = append(sr.loops, new(server.Loop))
	}
	sr.lanes = len(lanes)
	for i, s := range lanes {
		lc := w.cfg
		lc.Seed = shard.StreamSeed(w.cfg.Seed, s.ID)
		var obs server.Observer = s.Tele.ServerObserver()
		if ctrl != nil {
			// The controller rides the request stream too (phase-boundary
			// detection).
			obs = multiObserver{obs, ctrl}
		}
		if err := sr.loops[i].Reset(lc, server.LoopOpts{Observer: obs}); err != nil {
			sr.lanes = i
			sr.release()
			return nil, err
		}
	}
	return sr, nil
}

// serverRun is a Server workload bound to a run: a request loop a lane,
// kept with the serverRun and reset for every run with its latency buffer
// and key permutation, and the round body, made once. Released ones wait
// on serverRuns.
type serverRun struct {
	slo    server.SLO
	rounds int
	lanes  int
	loops  []*server.Loop                  // the first lanes are the run's
	body   func(round int, s *shard.Shard) // sr.run
}

var serverRuns heap.FreeList[*serverRun]

func (sr *serverRun) plan() shard.Plan { return shard.Plan{Rounds: sr.rounds, Body: sr.body} }

func (sr *serverRun) run(round int, s *shard.Shard) {
	loop := sr.loops[s.ID]
	if round == 0 {
		loop.Start(s.M, s.Heap.Space().Types)
	}
	loop.RunBatch()
}

func (sr *serverRun) report() *server.Report {
	return server.ReportLoops(sr.loops[:sr.lanes], sr.slo)
}

func (sr *serverRun) release() { serverRuns.Put(sr) }

// multiObserver fans one request stream out to several observers
// (telemetry plus the adaptive controller).
type multiObserver []server.Observer

func (m multiObserver) Request(kind, phase, key int, start, latency, pauseCost float64) {
	for _, o := range m {
		o.Request(kind, phase, key, start, latency, pauseCost)
	}
}
