package harness

import (
	"encoding/json"
	"testing"

	"beltway/internal/collectors"
	"beltway/internal/core"
	"beltway/internal/engine"
	"beltway/internal/server"
	"beltway/internal/workload"
)

// TestRunsAreIndependentOfWhatRanBefore: a run builds on what the runs
// before it in the process released — the lane and its heap with its
// tables, root table, remembered sets, line metadata and clock, the
// lane's type registry, mutator, recorder and RNG, the workload's
// contexts with their arenas and loops, slabs (DESIGN.md §5, "Run
// lifecycle") — so no Result may depend on what those runs were.
// Every TestRunGoldenDigests row must reproduce its literal run in order,
// each right after an Appel run of pseudojbb at its minimum heap (the
// largest tables a search leaves), each right after an immix run of
// pseudojbb at that heap (line metadata, marked and swept), each right
// after a two-lane server run of a longer, differently seeded script
// (latency buffers and key permutations larger than the rows need, full
// of another run's values), each right after javac and then pseudojbb
// (whose digest must be the one pseudojbb has run first: a registry and
// an arena handed from one benchmark to another), each both before and
// after such a server run, each right after a four-lane run (whose
// runtime keeps three lanes idle through the narrower row), each right
// before one (whose digest must be the one it has run first: lanes kept
// idle, then built again), in reverse order, and two at a time through
// an engine with two workers, where each run's heap is built from what
// the other side released.
func TestRunsAreIndependentOfWhatRanBefore(t *testing.T) {
	env := EnvForScale(0.1)
	// A four-lane run: a pooled runtime keeps the lanes a narrower run
	// leaves idle, heaps and all, for the next run as wide.
	fourLanes := func(t *testing.T) string {
		env := env
		env.Mutators = 4
		res, err := RunOne(collectors.XX100(25, env.Options(benchHeap)), workload.Jess(), env)
		if err != nil || res.Incomplete() || res.Mutators != 4 {
			t.Fatalf("four lanes: %v %+v", err, res)
		}
		d, err := ResultDigest(res)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	fourAlone := fourLanes(t)
	jbb := workload.Get("pseudojbb")
	jbbMin, err := FindMinHeap(AppelConfig(env), jbb, env)
	if err != nil {
		t.Fatal(err)
	}
	runBefore := func(cfg func(collectors.Options) core.Config, heapBytes int) func(t *testing.T) {
		return func(t *testing.T) {
			res, err := RunOne(cfg(env.Options(heapBytes)), jbb, env)
			if err != nil || res.Failure != "" {
				t.Fatalf("the run before: %v %+v", err, res)
			}
		}
	}
	appelAtMin := runBefore(collectors.Appel, jbbMin)
	immix := runBefore(collectors.Immix, jbbMin)
	// pseudojbb after javac: the lane's type registry and workload arena
	// pass from one benchmark's program to another's.
	javac := workload.Get("javac")
	javacMin, err := FindMinHeap(AppelConfig(env), javac, env)
	if err != nil {
		t.Fatal(err)
	}
	jbbDigest := func(t *testing.T) string {
		res, err := RunOne(collectors.XX100(25, env.Options(2*jbbMin)), jbb, env)
		if err != nil || res.Incomplete() {
			t.Fatalf("pseudojbb: %v %+v", err, res)
		}
		d, err := ResultDigest(res)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	jbbAlone := jbbDigest(t)
	longServer := func(t *testing.T) {
		sc := server.Scaled(0.25)
		sc.Seed++
		env := EnvForScale(0.25)
		env.Mutators = 2
		res, err := RunServer(serverCollector(t, "25.25", sc, env, 3), sc, server.DefaultSLO, env)
		if err != nil || res.Incomplete() {
			t.Fatalf("the run before: %v %+v", err, res)
		}
	}
	runAndCheck := func(t *testing.T, tc goldenCase) {
		res, err := tc.run()
		if err != nil {
			t.Fatal(err)
		}
		tc.check(t, res)
	}
	t.Run("in order", func(t *testing.T) {
		for _, tc := range goldenCases {
			runAndCheck(t, tc)
		}
	})
	t.Run("after pseudojbb on Appel at its minimum", func(t *testing.T) {
		for _, tc := range goldenCases {
			appelAtMin(t)
			runAndCheck(t, tc)
		}
	})
	t.Run("after immix", func(t *testing.T) {
		for _, tc := range goldenCases {
			immix(t)
			runAndCheck(t, tc)
		}
	})
	t.Run("after a longer two-lane server run", func(t *testing.T) {
		for _, tc := range goldenCases {
			longServer(t)
			runAndCheck(t, tc)
		}
	})
	t.Run("after pseudojbb after javac", func(t *testing.T) {
		for _, tc := range goldenCases {
			if res, err := RunOne(collectors.XX100(25, env.Options(2*javacMin)), javac, env); err != nil || res.Incomplete() {
				t.Fatalf("javac: %v %+v", err, res)
			}
			if got := jbbDigest(t); got != jbbAlone {
				t.Errorf("pseudojbb after javac: digest %s, after nothing %s", got, jbbAlone)
			}
			runAndCheck(t, tc)
		}
	})
	t.Run("on both sides of a two-lane server run", func(t *testing.T) {
		for _, tc := range goldenCases {
			runAndCheck(t, tc)
			longServer(t)
			runAndCheck(t, tc)
		}
	})
	t.Run("after a four-lane run", func(t *testing.T) {
		for _, tc := range goldenCases {
			fourLanes(t)
			runAndCheck(t, tc)
		}
	})
	t.Run("four lanes after each row", func(t *testing.T) {
		for _, tc := range goldenCases {
			runAndCheck(t, tc)
			if got := fourLanes(t); got != fourAlone {
				t.Errorf("four lanes after %s: digest %s, first %s", tc.name, got, fourAlone)
			}
		}
	})
	t.Run("in reverse order", func(t *testing.T) {
		for i := len(goldenCases) - 1; i >= 0; i-- {
			runAndCheck(t, goldenCases[i])
		}
	})
	t.Run("two at a time", func(t *testing.T) {
		jobs := make([]engine.Job, len(goldenCases))
		for i, tc := range goldenCases {
			jobs[i] = engine.Job{Key: engine.Key{Experiment: "golden", Collector: tc.name}, Run: func() (any, engine.Outcome, error) {
				res, err := tc.run()
				if err != nil {
					return nil, "", err
				}
				d, err := ResultDigest(res)
				return d, "", err
			}}
		}
		recs, err := engine.New(engine.Config{Workers: 2}).Run(jobs)
		if err != nil {
			t.Fatal(err)
		}
		for i, rec := range recs {
			var got string
			if err := json.Unmarshal(rec.Payload, &got); err != nil || got != goldenCases[i].want {
				t.Errorf("%s: %s %s, digest %q, want %s", goldenCases[i].name, rec.Outcome, rec.Error, got, goldenCases[i].want)
			}
		}
	})
}
