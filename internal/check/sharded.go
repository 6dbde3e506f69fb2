package check

import (
	"errors"
	"fmt"
	"math"

	"beltway/internal/core"
	"beltway/internal/gc"
	"beltway/internal/shard"
)

// Sharded oracle: the differential oracle's answer to "is the
// multi-mutator runtime still the same collector?". One script is
// dealt round-robin over N shard mutators and cut into rounds; the
// lanes are coupled the way every multi-lane run couples them — they
// share nothing, and every second round boundary is a rendezvoused
// global collection of every lane's heap. The identical schedule then
// executes two ways — concurrently on N goroutines (shard.Runtime.Run)
// and replayed one shard at a time on one goroutine (RunSerial) — and
// every mutator-observable outcome must match per shard: validated
// live-graph fingerprints, allocation serial streams, and OOM verdicts
// — and, the two schedules being one configuration, the makespan's
// bits. Across configurations cost, pauses and telemetry remain policy,
// exactly as in the flat oracle.

// DefaultOpsPerRound is the round granularity of the sharded oracle:
// small enough that every seed script dealt over up to six lanes cuts
// into at least two rounds (the shortest, db, is 117 ops), so a global
// collection follows at least one of them.
const DefaultOpsPerRound = 16

// ShardedRun is the sharded oracle's result for one configuration.
// Divergences lists every disagreement (replay failures, OOM verdicts,
// serial streams, fingerprints, makespan) between the schedules.
type ShardedRun struct {
	Report
	Rounds int
	// Waits is the parallel schedule's shard.Runtime.Waits: lanes-1 per
	// global collection, so nonzero at two or more lanes exactly when
	// the plan reached a rendezvous.
	Waits int
	// Parallel and Serial hold per-shard outcomes of the two schedules,
	// indexed by shard id.
	Parallel []Outcome
	Serial   []Outcome
}

// DealScript partitions a script round-robin over n shards: op i goes
// to shard i%n, order preserved within a shard. The interleaving is
// the fixed schedule both execution modes replay.
func DealScript(s Script, n int) []Script {
	subs := make([]Script, n)
	for i, op := range s {
		subs[i%n] = append(subs[i%n], op)
	}
	return subs
}

// RunScriptSharded runs the sharded oracle for one configuration:
// the script is dealt over the given number of shards, cut into
// rounds of opsPerRound ops (DefaultOpsPerRound when <= 0), executed
// concurrently and serially, and the per-shard outcomes diffed.
// Every shard's heap uses the oracle sizing policy over the largest
// dealt sub-script, so OOM verdicts stay comparable across shards and
// configurations.
func RunScriptSharded(script Script, cfg core.Config, shards, opsPerRound int) ShardedRun {
	if opsPerRound <= 0 {
		opsPerRound = DefaultOpsPerRound
	}
	subs := DealScript(script, shards)
	allocBytes, maxOps := 0, 0
	for _, sub := range subs {
		allocBytes = max(allocBytes, sub.AllocBytes())
		maxOps = max(maxOps, len(sub))
	}
	rounds := max((maxOps+opsPerRound-1)/opsPerRound, 1)
	cfg = Sized([]core.Config{cfg}, HeapBytesFor(allocBytes))[0]

	sr := ShardedRun{Rounds: rounds}
	build := func() (*shard.Runtime, shard.Plan, error) {
		return scriptSchedule(cfg, subs, rounds, opsPerRound)
	}
	par, perr := runSchedule(cfg.Name, build, false)
	ser, serr := runSchedule(cfg.Name, build, true)
	if perr != nil {
		sr.Divergences = append(sr.Divergences,
			Divergence{A: cfg.Name, Field: "replay", Detail: "parallel: " + perr.Error()})
		return sr
	}
	if serr != nil {
		sr.Divergences = append(sr.Divergences,
			Divergence{A: cfg.Name, Field: "replay", Detail: "serial: " + serr.Error()})
		return sr
	}
	sr.Parallel, sr.Serial, sr.Waits = par.lanes, ser.lanes, par.waits
	sr.Divergences = diffSchedules(cfg.Name, par, ser)
	return sr
}

// schedule is what one execution of a sharded plan leaves to compare:
// every lane's outcome and the makespan the runtime derives from all
// lanes together, plus how often a lane waited at a rendezvous.
type schedule struct {
	lanes    []Outcome
	makespan float64 // shard.Runtime.Makespan
	waits    int     // shard.Runtime.Waits; 0 under RunSerial
}

// diffSchedules lists every disagreement between a plan's concurrent
// and serial executions: per lane the replay errors, OOM verdicts,
// serial streams and fingerprints; per run the makespan, bit for bit —
// within one configuration cost is semantics too, since both schedules
// must make the same float sums.
func diffSchedules(name string, par, ser schedule) []Divergence {
	var divs []Divergence
	for i := range par.lanes {
		a, b := par.lanes[i], ser.lanes[i]
		switch {
		case a.Err != b.Err:
			// A lane that fails on one schedule only is what this battery
			// exists to find, and is reported as the pair it is.
			divs = append(divs, Divergence{
				A: a.Name, B: b.Name, Field: "replay",
				Detail: fmt.Sprintf("parallel err %q vs serial err %q", a.Err, b.Err)})
		case a.Err != "":
			// The lane failed the same way on both schedules: one finding.
			divs = append(divs, Divergence{A: a.Name, Field: "replay", Detail: a.Err})
		default:
			divs = append(divs, compare(a, b, "parallel OOM=%v vs serial OOM=%v")...)
		}
	}
	if math.Float64bits(par.makespan) != math.Float64bits(ser.makespan) {
		divs = append(divs, Divergence{A: name, Field: "makespan",
			Detail: fmt.Sprintf("parallel %v vs serial %v", par.makespan, ser.makespan)})
	}
	return divs
}

// scriptSchedule builds a fresh runtime and the plan that replays the
// dealt script on it: each round a shard runs its slice of ops, and
// every second round boundary is a global collection.
func scriptSchedule(cfg core.Config, subs []Script, rounds, opsPerRound int) (*shard.Runtime, shard.Plan, error) {
	shards := len(subs)
	rt, err := shard.New(cfg, shard.Options{
		Shards:   shards,
		Validate: true,
	})
	if err != nil {
		return nil, shard.Plan{}, err
	}
	exs := make([]*Executor, shards)
	plan := shard.Plan{
		Rounds:       rounds,
		CollectEvery: 2,
		Body: func(r int, s *shard.Shard) {
			ex := exs[s.ID]
			if ex == nil {
				ex = NewExecutor(s.M)
				exs[s.ID] = ex
			}
			sub := subs[s.ID]
			lo := min(r*opsPerRound, len(sub))
			for _, op := range sub[lo:min(lo+opsPerRound, len(sub))] {
				ex.Do(op)
			}
			if r == rounds-1 {
				ex.Close()
			}
		},
	}
	return rt, plan, nil
}

// runSchedule executes the plan build hands it once, on the parallel or
// the serial schedule, with an allocation-serial tap on every shard. The
// runtime must have been built with shard.Options.Validate.
func runSchedule(name string, build func() (*shard.Runtime, shard.Plan, error), serial bool) (schedule, error) {
	rt, plan, err := build()
	if err != nil {
		return schedule{}, err
	}
	taps := make([]*serialTap, len(rt.Shards()))
	for i, s := range rt.Shards() {
		taps[i] = &serialTap{m: s.M}
		s.M.SetRecorder(taps[i])
	}
	mode := "par"
	if serial {
		mode = "ser"
		err = rt.RunSerial(plan)
	} else {
		err = rt.Run(plan)
	}
	if err != nil {
		return schedule{}, err
	}
	sched := schedule{makespan: rt.Makespan(), waits: rt.Waits()}
	for i, s := range rt.Shards() {
		out := Outcome{
			Name:        fmt.Sprintf("%s/%s/shard%d", name, mode, i),
			Collections: s.Heap.Collections(),
			Serials:     taps[i].serials,
		}
		var err error
		switch {
		case s.OOM():
			err = gc.ErrOutOfMemory
		case s.Failure() != "":
			err = errors.New(s.Failure())
		}
		out.classify(err, s.V)
		sched.lanes = append(sched.lanes, out)
	}
	return sched, nil
}
