package harness

import (
	"errors"
	"fmt"

	"beltway/internal/core"
	"beltway/internal/gc"
	"beltway/internal/heap"
	"beltway/internal/resilience"
	"beltway/internal/server"
	"beltway/internal/shard"
	"beltway/internal/stats"
	"beltway/internal/telemetry"
	"beltway/internal/vm"
)

// serverBenchName is the Result.Benchmark of server-workload runs.
const serverBenchName = "server"

// multiObserver fans one request stream out to several observers
// (telemetry plus the adaptive controller).
type multiObserver []server.Observer

func (m multiObserver) Request(kind, phase, key int, start, latency, pauseCost float64) {
	for _, o := range m {
		o.Request(kind, phase, key, start, latency, pauseCost)
	}
}

// RunServer executes a server workload (internal/server) on one
// collector configuration: request/response traffic over a keyed store,
// with per-request latencies stamped on the cost-unit clock and the SLO
// verdict attached as Result.Server. Env.Mutators > 1 dispatches to
// RunServerSharded (N independent serving lanes). OOM and cost-budget
// aborts are reported like RunOne's, with the partial request stream
// still summarized.
func RunServer(cfg core.Config, sc server.Config, slo server.SLO, env Env) (res *Result, err error) {
	if env.Mutators > 1 {
		if env.Policy != "" {
			_, err := newController(env)
			return nil, err
		}
		return RunServerSharded(cfg, sc, slo, env)
	}
	if env.Degrade {
		cfg.Degrade = true
	}
	if env.FaultSeed != 0 && cfg.Faults == nil {
		sched := resilience.NewSchedule(env.FaultSeed, resilience.DefaultHorizon)
		cfg.Faults = resilience.NewInjector(sched).Hooks()
	}
	ctrl, cerr := newController(env)
	if cerr != nil {
		return nil, cerr
	}
	if ctrl != nil {
		cfg.Policy = ctrl
	}
	types := heap.NewRegistry()
	h, herr := core.New(cfg, types)
	if herr != nil {
		return nil, fmt.Errorf("harness: %s on %s: %w", cfg.Name, serverBenchName, herr)
	}
	defer h.Space().Release() // as in RunOne
	h.Clock().Budget = env.CostBudget
	tele := telemetry.NewRun(h.Clock())
	h.SetHooks(tele.Hooks())
	if ctrl != nil {
		ctrl.SetEmitter(tele.PolicyObserver())
	}
	m := vm.New(h)
	// The controller rides the request stream too (phase-boundary
	// detection), so compose it with the telemetry observer.
	var obs server.Observer = tele.ServerObserver()
	if ctrl != nil {
		obs = multiObserver{tele.ServerObserver(), ctrl}
	}
	loop, lerr := server.NewLoop(sc, server.LoopOpts{Observer: obs})
	if lerr != nil {
		return nil, fmt.Errorf("harness: %s on %s: %w", cfg.Name, serverBenchName, lerr)
	}
	snapshot := func() *Result {
		res := &Result{
			Collector:   cfg.Name,
			Benchmark:   serverBenchName,
			HeapBytes:   cfg.HeapBytes,
			TotalTime:   h.Clock().TotalTime(),
			GCTime:      h.Clock().GCTime(),
			MaxPause:    h.Clock().MaxPause(),
			Pauses:      h.Clock().Pauses(),
			Counters:    h.Clock().Counters,
			Collections: h.Collections(),
			Server:      loop.Report(slo),
		}
		tele.ServerObserver().AddViolations(res.Server.Violations())
		if env.Telemetry {
			res.Telemetry = tele.Snapshot()
		}
		if ctrl != nil {
			res.Policy = ctrl.Summary()
		}
		return res
	}
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(stats.BudgetExceeded); ok {
				res = snapshot()
				res.Aborted = true
				err = nil
				return
			}
			res = nil
			err = &HeapCorruptionError{
				Collector: cfg.Name,
				Benchmark: serverBenchName,
				Panic:     r,
				Events:    tele.Recorder().Last(corruptionEventTail),
			}
		}
	}()
	runErr := m.Run(func() {
		loop.Start(m, types)
		for !loop.Done() {
			loop.RunBatch()
		}
	})
	res = snapshot()
	if runErr != nil {
		if errors.Is(runErr, gc.ErrOutOfMemory) {
			res.OOM = true
			return res, nil
		}
		return nil, fmt.Errorf("harness: %s on %s: %w", cfg.Name, serverBenchName, runErr)
	}
	return res, nil
}

// RunServerSharded serves the workload on Env.Mutators independent
// lanes: each shard runs the full request script against a private heap,
// seeded from its own decorrelated stream (shard.StreamSeed, whose shard
// 0 is the identity — a 1-mutator sharded run replays the flat request
// stream bit-identically: latencies, SLO verdicts, store fingerprint).
// Rounds are arrival batches, so shards advance batch by batch with
// safepoint polls between requests; collections stay shard-local, which
// keeps per-request latencies a pure function of each shard's own
// stream. Reports merge in shard order (server.MergeReports).
func RunServerSharded(cfg core.Config, sc server.Config, slo server.SLO, env Env) (*Result, error) {
	n := env.Mutators
	if n < 1 {
		n = 1
	}
	if env.Policy != "" {
		return nil, fmt.Errorf("harness: adaptive policy (%q) is not supported on the sharded runtime (shards would tune independently)", env.Policy)
	}
	if err := sc.Validate(); err != nil {
		return nil, fmt.Errorf("harness: %s on %s: %w", cfg.Name, serverBenchName, err)
	}
	if env.FaultSeed != 0 {
		return nil, fmt.Errorf("harness: fault injection is single-mutator only (mutators=%d)", n)
	}
	if env.Degrade {
		cfg.Degrade = true
	}
	rt, err := shard.New(cfg, shard.Options{
		Shards:       n,
		Seed:         sc.Seed,
		PerShardHeap: true, // scale-out: each serving lane gets the configured heap
		Telemetry:    true, // request observers ride the per-shard runs
	})
	if err != nil {
		return nil, fmt.Errorf("harness: %s on %s: %w", cfg.Name, serverBenchName, err)
	}
	defer rt.Release()
	loops := make([]*server.Loop, n)
	for _, s := range rt.Shards() {
		s.Heap.Clock().Budget = env.CostBudget
		lc := sc
		lc.Seed = shard.StreamSeed(sc.Seed, s.ID)
		loop, lerr := server.NewLoop(lc, server.LoopOpts{
			Observer: s.Tele.ServerObserver(),
			Poll:     s.Poll,
		})
		if lerr != nil {
			return nil, fmt.Errorf("harness: %s on %s: %w", cfg.Name, serverBenchName, lerr)
		}
		loops[s.ID] = loop
	}
	plan := shard.Plan{
		Rounds: sc.Batches(),
		Body: func(round int, s *shard.Shard) {
			loop := loops[s.ID]
			if round == 0 {
				loop.Start(s.M, s.Heap.Space().Types)
			}
			loop.RunBatch()
		},
	}
	if err := rt.Run(plan); err != nil {
		return nil, fmt.Errorf("harness: %s on %s: %w", cfg.Name, serverBenchName, err)
	}
	reports := make([]*server.Report, n)
	for i, loop := range loops {
		reports[i] = loop.Report(slo)
	}
	merged := server.MergeReports(reports, slo)
	rt.Shards()[0].Tele.ServerObserver().AddViolations(merged.Violations())

	sres := rt.Result()
	res := &Result{
		Collector: cfg.Name,
		Benchmark: serverBenchName,
		HeapBytes: cfg.HeapBytes,
		Mutators:  n,
		TotalTime: sres.Makespan,
		Server:    merged,
	}
	for _, st := range sres.PerShard {
		res.Counters.Add(st.Counters)
		res.Collections += st.Collections
		if st.GCTime > res.GCTime {
			res.GCTime = st.GCTime
		}
		if st.MaxPause > res.MaxPause {
			res.MaxPause = st.MaxPause
		}
		res.Pauses = append(res.Pauses, st.Pauses...)
		if st.OOM {
			res.OOM = true
		}
		if st.Aborted {
			res.Aborted = true
		}
		if st.Failure != "" && res.Failure == "" {
			res.Failure = fmt.Sprintf("shard %d: %s", st.ID, st.Failure)
		}
	}
	if env.Telemetry {
		res.Telemetry = rt.MergedTelemetry()
	}
	return res, nil
}
