package check

import (
	"fmt"
	"math"
	"runtime"
	"testing"
	"time"

	"beltway/internal/collectors"
	"beltway/internal/core"
	"beltway/internal/gc"
	"beltway/internal/server"
	"beltway/internal/shard"
	"beltway/internal/stats"
)

// A scenario builds a fresh runtime and plan over the given number of
// lanes; plan bodies keep per-run state, so each schedule gets its own.
type scenario struct {
	name  string
	build func(lanes int) (*shard.Runtime, shard.Plan, error)
	// rendezvous is how many global collections the plan makes; under
	// Run each parks every lane but the last to arrive.
	rendezvous int
	// check, when set, inspects the parallel schedule's outcome for what
	// the scenario is there to provoke.
	check func(t *testing.T, par schedule)
}

// scenarioConfig charges thirds and tenths: the default cost model is
// almost all dyadic, and sums of dyadic charges are exact in any order,
// so a makespan folded in another order than RunSerial's would not show
// in its bits.
func scenarioConfig(heapBytes int) core.Config {
	cfg := collectors.XX100(25, collectors.Options{HeapBytes: heapBytes, FrameBytes: 4 << 10})
	cfg.Costs = stats.DefaultCosts()
	cfg.Costs.AllocByte, cfg.Costs.FieldAccess, cfg.Costs.MutatorOp = 2.1, 1.0/3, 20.3
	cfg.Costs.CopyByte, cfg.Costs.ScanSlot, cfg.Costs.RootSlot = 1.0/3, 2.1, 4.3
	return cfg
}

func validatedRuntime(cfg core.Config, lanes int) (*shard.Runtime, error) {
	return shard.New(cfg, shard.Options{Shards: lanes, Seed: 20020617, Validate: true})
}

// serverScenario is the shape of harness.Server's plan: one request
// loop per lane, rounds are arrival batches, and nothing collects
// globally — under Run no lane ever waits.
func serverScenario(lanes int) (*shard.Runtime, shard.Plan, error) {
	sc := server.Scaled(0.02)
	rt, err := validatedRuntime(scenarioConfig(3*sc.EstLiveBytes()), lanes)
	if err != nil {
		return nil, shard.Plan{}, err
	}
	loops := make([]*server.Loop, lanes)
	for i := range loops {
		lc := sc
		lc.Seed = shard.StreamSeed(sc.Seed, i)
		if loops[i], err = server.NewLoop(lc, server.LoopOpts{}); err != nil {
			return nil, shard.Plan{}, err
		}
	}
	return rt, shard.Plan{Rounds: sc.Batches(), Body: func(r int, s *shard.Shard) {
		if r == 0 {
			loops[s.ID].Start(s.M, s.Heap.Space().Types)
		}
		loops[s.ID].RunBatch()
	}}, nil
}

// chain allocates a short linked chain with stream-derived payloads and
// keeps its head alive for the rest of the run.
func chain(s *shard.Shard, r int) {
	types := s.Heap.Space().Types
	node := types.Lookup("t.node")
	if node == nil {
		node = types.DefineScalar("t.node", 2, 4)
	}
	s.M.Push()
	var last gc.Handle
	for i := 0; i < 12; i++ {
		h := s.M.Alloc(node, 0)
		s.M.SetData(h, 0, uint32(s.Rng.Intn(1<<16)))
		s.M.SetData(h, 1, uint32(r))
		s.M.SetRef(h, 0, last)
		last = h
		s.M.Work(1 + s.Rng.Intn(4))
	}
	s.M.Keep(last)
	s.M.Pop()
}

// sparseScenario has lane 0 dawdle through rounds 0–5, so the other
// lanes run rounds ahead of it up to each rendezvous, and makes rounds
// of very unequal cost: the makespan's bits then depend on the order
// rounds and global collections are summed in, so a makespan folded in
// any order but RunSerial's shows.
func sparseScenario(lanes int) (*shard.Runtime, shard.Plan, error) {
	rt, err := validatedRuntime(scenarioConfig(256<<10), lanes)
	if err != nil {
		return nil, shard.Plan{}, err
	}
	return rt, shard.Plan{Rounds: 24, CollectEvery: 5, Body: func(r int, s *shard.Shard) {
		if s.ID == 0 && r < 6 {
			time.Sleep(300 * time.Microsecond)
		}
		s.M.Work(1 << (r % 13))
		chain(s, r)
	}}, nil
}

// oomScenario kills lane 1 in round 1 of 50, with a global collection
// after every seventh round: the dead lane must still arrive at every
// later rendezvous, or the live lanes would wait for it forever.
func oomScenario(lanes int) (*shard.Runtime, shard.Plan, error) {
	rt, err := validatedRuntime(scenarioConfig(128<<10), lanes)
	if err != nil {
		return nil, shard.Plan{}, err
	}
	return rt, shard.Plan{Rounds: 50, CollectEvery: 7, Body: func(r int, s *shard.Shard) {
		chain(s, r)
		if s.ID == 1 && r == 1 {
			node := s.Heap.Space().Types.Lookup("t.node")
			for {
				s.M.AllocGlobal(node, 0) // never released: the heap fills
			}
		}
	}}, nil
}

// TestShardedSchedulesAgree holds Run to RunSerial — per-lane
// allocation serials, live fingerprints and OOM verdicts, and the
// makespan's bits — on the plans that stress where Run's lanes may and
// may not wait for each other, at three widths, with one, two and four
// host threads under them: on one thread a lane runs until it blocks or
// is preempted, the schedule least like rounds in lockstep.
func TestShardedSchedulesAgree(t *testing.T) {
	cfgs, err := PresetConfigs()
	if err != nil {
		t.Fatal(err)
	}
	scenarios := []scenario{
		{name: "server", build: serverScenario},
		{name: "sparse-collect", build: sparseScenario, rendezvous: 24 / 5},
		{name: "oom-round-1-of-50", build: oomScenario, rendezvous: 50 / 7, check: func(t *testing.T, par schedule) {
			for i, o := range par.lanes {
				if o.OOM != (i == 1) {
					t.Errorf("lane %d OOM=%v; exactly lane 1 should die", i, o.OOM)
				}
			}
		}},
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		for _, lanes := range []int{2, 3, 4} {
			// The oracle's own plan collects globally every second round.
			if run := RunScriptSharded(SeedScripts()[0].Script, cfgs[0], lanes, 32); run.Failed() {
				t.Errorf("oracle-script/lanes%d/procs%d:\n%s", lanes, procs, run.String())
			}
			for _, sc := range scenarios {
				name := fmt.Sprintf("%s/lanes%d/procs%d", sc.name, lanes, procs)
				build := func() (*shard.Runtime, shard.Plan, error) { return sc.build(lanes) }
				par, err := runSchedule(name, build, false)
				if err != nil {
					t.Fatalf("%s: parallel: %v", name, err)
				}
				ser, err := runSchedule(name, build, true)
				if err != nil {
					t.Fatalf("%s: serial: %v", name, err)
				}
				for _, d := range diffSchedules(name, par, ser) {
					t.Errorf("%s", d)
				}
				if want := (lanes - 1) * sc.rendezvous; par.waits != want {
					t.Errorf("%s: %d waits at rendezvous, want %d", name, par.waits, want)
				}
				if sc.check != nil {
					sc.check(t, par)
				}
			}
		}
	}
}

// TestDiffSchedulesSeesRunLevelDrift checks the run-level comparison
// fires: a schedule pair equal lane for lane but off by one bit of
// makespan is a divergence.
func TestDiffSchedulesSeesRunLevelDrift(t *testing.T) {
	base := schedule{lanes: []Outcome{{Name: "a"}}, makespan: 0.3}
	if d := diffSchedules("x", base, base); len(d) != 0 {
		t.Fatalf("identical schedules diverge: %v", d)
	}
	span := base
	span.makespan = math.Nextafter(base.makespan, 1)
	if d := diffSchedules("x", base, span); len(d) != 1 || d[0].Field != "makespan" {
		t.Errorf("makespan drift reported as %v", d)
	}
}
