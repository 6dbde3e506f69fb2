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
// Result with Telemetry.Metrics set to nil. All rows were re-taken once
// more when the two always-zero large-object counters left
// stats.Counters: each is the digest of the earlier payload with
// `"LOSBytesAllocated":0,"LOSBytesSwept":0,` cut out.)
func TestRunGoldenDigests(t *testing.T) {
	for _, tc := range goldenCases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := tc.run()
			if err != nil {
				t.Fatal(err)
			}
			if !tc.holds(res) {
				t.Errorf("the run does not exercise what the row is for: oom=%v failure=%q mutators=%d collections=%d policy=%+v",
					res.OOM, res.Failure, res.Mutators, res.Collections, res.Policy)
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
		want:  "ebd5002c555ef3d30b8c3d3f02fceab38ca48edd98f74abac266d51927180a43"},
	{name: "bench mutators 1 is flat", heap: benchHeap, // the same literal: one lane is the flat run
		tweak: func(e *Env) { e.Mutators = 1 },
		holds: func(r *Result) bool { return r.Mutators == 0 },
		want:  "ebd5002c555ef3d30b8c3d3f02fceab38ca48edd98f74abac266d51927180a43"},
	{name: "bench telemetry", heap: benchHeap,
		tweak: func(e *Env) { e.Telemetry = true },
		holds: func(r *Result) bool { return r.Telemetry != nil && len(r.Telemetry.Events) > 0 },
		want:  "c34821b615071dc96fc670673a4f3bb2e243f1c13b358897ecb5e200415d3af6"},
	{name: "bench policy slo", heap: benchHeap,
		tweak: func(e *Env) { e.Policy = "slo" },
		holds: func(r *Result) bool { return r.Policy != nil },
		want:  "f649d8fcaaa30b8443310d85b8f38a906dd3ed317ed73b742af3db4422743572"},
	{name: "bench policy throughput", heap: benchHeap,
		tweak: func(e *Env) { e.Policy = "throughput" },
		holds: func(r *Result) bool { return r.Policy != nil && r.Policy.Decisions > 0 },
		want:  "ce27b80f0f461ffe74ad2593dc8d002aad0820e0bb3ba9146b017817674a24cd"},
	{name: "bench oom", heap: oomHeap,
		holds: func(r *Result) bool { return r.OOM },
		want:  "32b58a2dad83e36228204b0f1125a2fb2a2e3196d5321a729f8b29caa9d06b85"},
	{name: "bench mutators 2", heap: benchHeap,
		tweak: func(e *Env) { e.Mutators = 2 },
		holds: func(r *Result) bool { return r.Mutators == 2 && !r.Incomplete() },
		want:  "70eb7b30e42195e73b0f2957b67d46270ff26292f1e9389745484c908e2bb95a"},
	{name: "bench mutators 2 telemetry", heap: benchHeap,
		tweak: func(e *Env) { e.Mutators = 2; e.Telemetry = true },
		holds: func(r *Result) bool { return r.Mutators == 2 && r.Telemetry != nil },
		want:  "75d39430d0d8f117d7f4ca46c34962a747749c56ba3b7f485805bb6e5fc632c9"},
	{name: "server flat", server: true,
		holds: func(r *Result) bool {
			return !r.Incomplete() && r.Server != nil && !r.Server.Passed && r.Mutators == 0
		},
		want: "598c763bca332708f230379b0f9cae817f97de6ba08ef179317b520e0e036436"},
	{name: "server mutators 1 is flat", server: true,
		tweak: func(e *Env) { e.Mutators = 1 },
		holds: func(r *Result) bool { return r.Mutators == 0 },
		want:  "598c763bca332708f230379b0f9cae817f97de6ba08ef179317b520e0e036436"},
	{name: "server telemetry", server: true,
		tweak: func(e *Env) { e.Telemetry = true },
		holds: func(r *Result) bool { return r.Telemetry != nil && r.Server != nil },
		want:  "0f548b4bee6c6c878c0cd616115b43b37214677104ca1617435492942f2ae3b8"},
	{name: "server policy slo", server: true,
		tweak: func(e *Env) { e.Policy = "slo" },
		holds: func(r *Result) bool { return r.Policy != nil && r.Policy.Decisions > 0 },
		want:  "4261cd4c3bd639f73866d10d131ef61bac2e93f49c6c2a1eb732ce38701711bd"},
	{name: "server mutators 2", server: true,
		tweak: func(e *Env) { e.Mutators = 2 },
		holds: func(r *Result) bool { return r.Mutators == 2 && r.Server.Shards == 2 },
		want:  "cee9a38761870b5c051f01aee733eff54bfd0914f59b895cc40650009adf5763"},
	{name: "server mutators 2 telemetry", server: true,
		tweak: func(e *Env) { e.Mutators = 2; e.Telemetry = true },
		holds: func(r *Result) bool { return r.Mutators == 2 && r.Telemetry != nil },
		want:  "8cba9a6076f2977550ebbfb3e8c13dd125fc13651b1dcce75f3c3669989d63df"},
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
