package shard

import (
	"runtime"
	"strings"
	"testing"

	"beltway/internal/gc"
)

// TestRunBlocksOnlyOnDependencies is the stopwatch-free guard on Run's
// schedule: lanes that collect alone never wait, and a global
// collection parks every lane but the last to arrive, once per
// boundary.
func TestRunBlocksOnlyOnDependencies(t *testing.T) {
	const rounds = 40
	body := func(r int, s *Shard) {
		types := s.Heap.Space().Types
		node := types.Lookup("t.node")
		if node == nil {
			node = types.DefineScalar("t.node", 1, 2)
		}
		s.M.Push()
		var last gc.Handle
		for i := 0; i < 20; i++ {
			h := s.M.Alloc(node, 0)
			s.M.SetRef(h, 0, last)
			last = h
		}
		s.M.Pop()
	}
	for _, lanes := range []int{2, 4} {
		cases := []struct {
			name      string
			plan      Plan
			wantWaits int
		}{
			{"free-running", Plan{Rounds: rounds, Body: body}, 0},
			{"collect-every-8", Plan{Rounds: rounds, CollectEvery: 8, Body: body}, (lanes - 1) * (rounds / 8)},
		}
		for _, c := range cases {
			rt := newTestRuntime(t, lanes, false)
			if err := rt.Run(c.plan); err != nil {
				t.Fatal(err)
			}
			for _, s := range rt.Shards() {
				if s.Dead() {
					t.Fatalf("%s/%d lanes: shard %d: %v", c.name, lanes, s.ID, s.Err())
				}
			}
			if got := rt.Waits(); got != c.wantWaits {
				t.Errorf("%s/%d lanes: %d blocking waits, want %d", c.name, lanes, got, c.wantWaits)
			}
		}
	}
}

// TestCollectionPanicIsTheLanesVerdict holds a global collection to
// the rule a round has, at the options every run uses and under both
// schedules: a panic in it is the lane's recorded failure, the lane runs
// no later round body, and Run/RunSerial still leave only by returning.
func TestCollectionPanicIsTheLanesVerdict(t *testing.T) {
	const lanes = 3
	schedules := []struct {
		name string
		run  func(*Runtime, Plan) error
	}{{"Run", (*Runtime).Run}, {"RunSerial", (*Runtime).RunSerial}}
	for _, sched := range schedules {
		rt, err := New(testConfig(), Options{Shards: lanes, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		// Lane 1's first global collection panics; the others run the
		// plan out.
		rt.Shards()[1].Heap.SetHooks(gc.Hooks{PreGC: func() { panic("heap broken") }})
		bodies := make([]int, lanes) // round bodies run, per lane
		if err := sched.run(rt, Plan{Rounds: 4, CollectEvery: 1, Body: func(r int, s *Shard) {
			bodies[s.ID]++
			types := s.Heap.Space().Types
			leaf := types.Lookup("t.leaf")
			if leaf == nil {
				leaf = types.DefineScalar("t.leaf", 0, 1)
			}
			s.M.AllocGlobal(leaf, 0)
			s.M.Work(10)
		}}); err != nil {
			t.Fatalf("%s: %v", sched.name, err)
		}
		for i, s := range rt.Shards() {
			if i == 1 {
				if s.Panic() != "heap broken" || !strings.HasPrefix(s.Failure(), "panic in collection after round 0: ") || s.OOM() {
					t.Errorf("%s: lane 1 after a panic in its collection: panic=%v failure=%q oom=%v",
						sched.name, s.Panic(), s.Failure(), s.OOM())
				}
				if bodies[i] != 1 {
					t.Errorf("%s: lane 1 ran %d round bodies; a stopped lane runs no later round", sched.name, bodies[i])
				}
				continue
			}
			if s.Dead() || bodies[i] != 4 {
				t.Errorf("%s: lane %d stopped (%v, %d bodies) because lane 1's collection panicked", sched.name, i, s.Err(), bodies[i])
			}
		}
	}
}

// TestRunSerialStartsNoGoroutine: the reference schedule is one
// goroutine's work, global collections included.
func TestRunSerialStartsNoGoroutine(t *testing.T) {
	rt := newTestRuntime(t, 3, false)
	before := runtime.NumGoroutine()
	most := before
	plan := testPlan(4)
	body := plan.Body
	plan.CollectEvery = 1
	plan.Body = func(r int, s *Shard) {
		body(r, s)
		most = max(most, runtime.NumGoroutine())
	}
	if err := rt.RunSerial(plan); err != nil {
		t.Fatal(err)
	}
	if after := runtime.NumGoroutine(); most > before || after > before {
		t.Errorf("goroutines: %d before RunSerial, %d at most inside round bodies, %d after", before, most, after)
	}
}
