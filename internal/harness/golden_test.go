package harness

import (
	"testing"

	"beltway/internal/collectors"
	"beltway/internal/server"
	"beltway/internal/workload"
)

// goldenSLO gives the server rows both a passing and a failing target, so
// the digests cover the verdict list and the violation counter.
var goldenSLO = server.SLO{Targets: []server.Target{
	{Quantile: "p99", Cost: 1e9}, {Quantile: "max", Cost: 1}}}

// TestRunGoldenDigests pins whole Results — every clock reading, pause,
// counter, latency, telemetry event and policy decision, through the
// canonical payload serialization — for one run of each feature the run
// pipeline wires up. The literals were taken at the commit before the
// four run paths were folded into Run; no flat-vs-sharded comparison
// inside one binary could show that a refactor of all paths at once
// changed nothing, these can. A literal only ever changes together with a
// deliberate change to the simulation, never with the harness. (The four
// telemetry rows were re-taken once, when RunSnapshot stopped carrying a
// second copy of the counters: each is the parent's digest of the same
// Result with Telemetry.Metrics set to nil.)
func TestRunGoldenDigests(t *testing.T) {
	for _, tc := range goldenCases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := tc.run()
			if err != nil {
				t.Fatal(err)
			}
			if !tc.holds(res) {
				t.Errorf("the run does not exercise what the row is for: oom=%v aborted=%v failure=%q mutators=%d collections=%d policy=%+v",
					res.OOM, res.Aborted, res.Failure, res.Mutators, res.Collections, res.Policy)
			}
			tc.check(t, res)
		})
	}
}

const (
	benchHeap = 128 << 10 // jess at scale 0.1: 131 collections, tight enough for the controller to act
	oomHeap   = 48 << 10
)

// goldenCase is one row of TestRunGoldenDigests: a run of jess, or of the
// server workload, with one feature of the run pipeline switched on.
type goldenCase struct {
	name   string
	server bool
	heap   int // bench rows; server rows run at 4x estimated live
	tweak  func(*Env)
	holds  func(*Result) bool // the feature under test really was exercised
	want   string
}

var goldenCases = []goldenCase{
	{name: "bench flat", heap: benchHeap,
		holds: func(r *Result) bool { return !r.Incomplete() && r.Collections > 0 && r.Mutators == 0 },
		want:  "d654b9a8580b8acb88f15a2cf5a3a8d380fe728743ff58f607ea4c4650f6375f"},
	{name: "bench mutators 1 is flat", heap: benchHeap, // the same literal: one lane is the flat run
		tweak: func(e *Env) { e.Mutators = 1 },
		holds: func(r *Result) bool { return r.Mutators == 0 },
		want:  "d654b9a8580b8acb88f15a2cf5a3a8d380fe728743ff58f607ea4c4650f6375f"},
	{name: "bench telemetry", heap: benchHeap,
		tweak: func(e *Env) { e.Telemetry = true },
		holds: func(r *Result) bool { return r.Telemetry != nil && len(r.Telemetry.Events) > 0 },
		want:  "95f3754e5e9ddddcbf04e01ac12b038a0278a1e3adc02f0e1ae2c00ca6c2be9b"},
	{name: "bench faults degrade", heap: benchHeap,
		tweak: func(e *Env) { e.FaultSeed = 7; e.Degrade = true },
		holds: func(r *Result) bool { return !r.Incomplete() },
		want:  "ba64b3591f1495937f2062c36af001458b5c2cae2c561954f72424c4390d7701"},
	{name: "bench policy slo", heap: benchHeap,
		tweak: func(e *Env) { e.Policy = "slo" },
		holds: func(r *Result) bool { return r.Policy != nil },
		want:  "3e846b0a2fd6d4452001ac045ebd7dafa601e69c745d7688b2e553814f6843c8"},
	{name: "bench policy throughput", heap: benchHeap,
		tweak: func(e *Env) { e.Policy = "throughput" },
		holds: func(r *Result) bool { return r.Policy != nil && r.Policy.Decisions > 0 },
		want:  "2b8090f6b62396801a5c581b2b3690c2119f110d90417f82af9d44ee5f81fc86"},
	{name: "bench cost budget", heap: benchHeap,
		tweak: func(e *Env) { e.CostBudget = 2e6 },
		holds: func(r *Result) bool { return r.Aborted && !r.OOM },
		want:  "3ed549157cb922b5701dc6dc1fddbd377fd5f02aa3fbc6de37f2d21bc4a3d07b"},
	{name: "bench oom", heap: oomHeap,
		holds: func(r *Result) bool { return r.OOM && !r.Aborted },
		want:  "b37fcbc83ba29884b7c2d31b81dc97f4c279a60a2392fea71c60738fb0cc1648"},
	{name: "bench mutators 2", heap: benchHeap,
		tweak: func(e *Env) { e.Mutators = 2 },
		holds: func(r *Result) bool { return r.Mutators == 2 && !r.Incomplete() },
		want:  "b3f45bec7680d244ac04bfd340e4691bcdfb9cde2d89b7972bf219751209b8a5"},
	{name: "bench mutators 2 telemetry", heap: benchHeap,
		tweak: func(e *Env) { e.Mutators = 2; e.Telemetry = true },
		holds: func(r *Result) bool { return r.Mutators == 2 && r.Telemetry != nil },
		want:  "381e63ff357aa76f0454a723e83c0e0e221b0a2c1b68d178319dfe2149174391"},
	{name: "server flat", server: true,
		holds: func(r *Result) bool {
			return !r.Incomplete() && r.Server != nil && !r.Server.Passed && r.Mutators == 0
		},
		want: "f160c563c694d435a9a483a5520530678a3525a366146dd9c2da9e25c9c83156"},
	{name: "server mutators 1 is flat", server: true,
		tweak: func(e *Env) { e.Mutators = 1 },
		holds: func(r *Result) bool { return r.Mutators == 0 },
		want:  "f160c563c694d435a9a483a5520530678a3525a366146dd9c2da9e25c9c83156"},
	{name: "server telemetry", server: true,
		tweak: func(e *Env) { e.Telemetry = true },
		holds: func(r *Result) bool { return r.Telemetry != nil && r.Server != nil },
		want:  "0fe600720ff38b44ba2e970108f41724ce04f291f9c43caac4dd364e74536810"},
	{name: "server policy slo", server: true,
		tweak: func(e *Env) { e.Policy = "slo" },
		holds: func(r *Result) bool { return r.Policy != nil && r.Policy.Decisions > 0 },
		want:  "440c9c4a3f7d55f8598d80c6fbfda6558aba5ab5629c51c9b6ba9ab2bf629e9e"},
	{name: "server mutators 2", server: true,
		tweak: func(e *Env) { e.Mutators = 2 },
		holds: func(r *Result) bool { return r.Mutators == 2 && r.Server.Shards == 2 },
		want:  "f6708b34bf51d726bbc420c8a2716f3e523b0283c925db31361644119956b232"},
	{name: "server mutators 2 telemetry", server: true,
		tweak: func(e *Env) { e.Mutators = 2; e.Telemetry = true },
		holds: func(r *Result) bool { return r.Mutators == 2 && r.Telemetry != nil },
		want:  "76e768778df1efc28e60f6135417ceb0ba51a1ae325b47eed18aca2503e64ad4"},
}

// run runs the row.
func (tc goldenCase) run() (*Result, error) {
	sc := server.Scaled(0.1)
	env := EnvForScale(0.1)
	if tc.tweak != nil {
		tc.tweak(&env)
	}
	spec, heap := "25.25.100", tc.heap
	if tc.server {
		spec = "25.25"
		heap = (4*sc.EstLiveBytes()/env.FrameBytes + 1) * env.FrameBytes
	}
	cfg, err := collectors.Parse(spec, collectors.Options{
		HeapBytes: heap, FrameBytes: env.FrameBytes, PhysMemBytes: env.PhysMemBytes})
	if err != nil {
		return nil, err
	}
	if tc.server {
		return RunServer(cfg, sc, goldenSLO, env)
	}
	return RunOne(cfg, workload.Jess(), env)
}

// check holds the row's Result to its literal.
func (tc goldenCase) check(t *testing.T, res *Result) {
	t.Helper()
	got, err := ResultDigest(res)
	if err != nil {
		t.Fatal(err)
	}
	if got != tc.want {
		t.Errorf("%s: digest %s, want %s", tc.name, got, tc.want)
	}
}
