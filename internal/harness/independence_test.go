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

// TestRunsAreIndependentOfWhatRanBefore: a run builds its heap on what
// the runs before it in the process released — root table, remembered
// sets, per-frame tables, line metadata, recorder rings, slabs (DESIGN.md
// §5, "Run lifecycle") — so no Result may depend on what those runs were.
// Every TestRunGoldenDigests row must reproduce its literal run in order,
// each right after an Appel run of pseudojbb at its minimum heap (the
// largest tables a search leaves), each right after an immix run of
// pseudojbb at that heap (line metadata, marked and swept), each right
// after a two-lane server run of a longer, differently seeded script
// (latency buffers and key permutations larger than the rows need, full
// of another run's values), in reverse order, and two at a time through an engine with two workers, where each
// run's heap is built from what the other side released.
func TestRunsAreIndependentOfWhatRanBefore(t *testing.T) {
	env := EnvForScale(0.1)
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
