package harness

import (
	"fmt"

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
	// plan binds the workload to the run's lanes: the rounds they
	// execute and, for a workload that measures more than the clocks do,
	// the fold of the lanes' reports into Result.Server (nil otherwise).
	// ctrl is the run's adaptive controller, nil when it has none.
	plan(lanes []*shard.Shard, env Env, ctrl *policy.Controller) (shard.Plan, func() *server.Report, error)
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

func (w benchWorkload) plan(lanes []*shard.Shard, env Env, _ *policy.Controller) (shard.Plan, func() *server.Report, error) {
	if env.Scale <= 0 {
		return shard.Plan{}, nil, fmt.Errorf("workload: non-positive scale %v", env.Scale)
	}
	p := shard.Plan{Rounds: 1, Body: func(_ int, s *shard.Shard) {
		w.b.Body(&workload.Ctx{
			M:         s.M,
			Types:     s.Heap.Space().Types,
			Rng:       s.Rng,
			Scale:     env.Scale,
			Pretenure: env.Pretenure,
		})
	}}
	if len(lanes) > 1 {
		p.CollectEvery = 1
	}
	return p, nil, nil
}

// Server is the request/response workload (internal/server): every lane
// serves the full request script against a private store, its stream
// seeded from the config's own seed (Env.Seed plays no part). Rounds are
// arrival batches, collections stay lane-local, so a request's latency is a pure function of its own
// lane's stream; one report covers the lanes in lane order
// (server.ReportLoops) and the SLO verdict is evaluated on it. Once it is
// built the loops release their per-request storage to the next run.
func Server(sc server.Config, slo server.SLO) Workload { return serverWorkload{sc, slo} }

type serverWorkload struct {
	cfg server.Config
	slo server.SLO
}

func (w serverWorkload) Name() string   { return "server" }
func (w serverWorkload) seed(Env) int64 { return w.cfg.Seed }

func (w serverWorkload) plan(lanes []*shard.Shard, _ Env, ctrl *policy.Controller) (shard.Plan, func() *server.Report, error) {
	loops := make([]*server.Loop, len(lanes))
	for i, s := range lanes {
		lc := w.cfg
		lc.Seed = shard.StreamSeed(w.cfg.Seed, s.ID)
		var obs server.Observer = s.Tele.ServerObserver()
		if ctrl != nil {
			// The controller rides the request stream too (phase-boundary
			// detection).
			obs = multiObserver{obs, ctrl}
		}
		loop, err := server.NewLoop(lc, server.LoopOpts{Observer: obs})
		if err != nil {
			return shard.Plan{}, nil, err
		}
		loops[i] = loop
	}
	p := shard.Plan{Rounds: w.cfg.Batches(), Body: func(round int, s *shard.Shard) {
		loop := loops[s.ID]
		if round == 0 {
			loop.Start(s.M, s.Heap.Space().Types)
		}
		loop.RunBatch()
	}}
	report := func() *server.Report {
		rep := server.ReportLoops(loops, w.slo)
		for _, loop := range loops {
			loop.Release()
		}
		return rep
	}
	return p, report, nil
}

// multiObserver fans one request stream out to several observers
// (telemetry plus the adaptive controller).
type multiObserver []server.Observer

func (m multiObserver) Request(kind, phase, key int, start, latency, pauseCost float64) {
	for _, o := range m {
		o.Request(kind, phase, key, start, latency, pauseCost)
	}
}
