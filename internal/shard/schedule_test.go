package shard

import (
	"runtime"
	"strings"
	"testing"

	"beltway/internal/gc"
)

// TestRunBlocksOnlyOnDependencies is the stopwatch-free guard on Run's
// schedule: lanes that exchange nothing and collect alone never wait,
// publishing alone makes nobody wait, and a global collection parks
// every lane but the last to arrive, once per boundary.
func TestRunBlocksOnlyOnDependencies(t *testing.T) {
	const rounds = 40
	body := func(publish bool) func(int, *Shard) {
		return func(r int, s *Shard) {
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
			if publish {
				s.Publish(s.ID, last)
			}
			s.M.Pop()
		}
	}
	for _, lanes := range []int{2, 4} {
		cases := []struct {
			name             string
			plan             Plan
			wantWaits, wantR int
		}{
			{"free-running", Plan{Rounds: rounds, Body: body(false)}, 0, 0},
			{"publish-only", Plan{Rounds: rounds, Body: body(true)}, 0, lanes * rounds},
			{"collect-every-8", Plan{Rounds: rounds, CollectEvery: 8, Body: body(false)}, (lanes - 1) * (rounds / 8), 0},
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
			// What nobody consumed is still committed when the plan ends.
			if got := rt.RoutedEntries(); got != c.wantR {
				t.Errorf("%s/%d lanes: %d routed entries, want %d", c.name, lanes, got, c.wantR)
			}
		}
	}
}

// TestSyncExchangeOrder drives the safepoint directly: lanes complete
// rounds out of step, and a merge takes exactly the tails of the rounds
// every lane has completed, in (round, ascending lane) order, leaving
// the tails of lanes that ran ahead sealed.
func TestSyncExchangeOrder(t *testing.T) {
	staged := func(lane, round int) *tail {
		p := newPendingExchange()
		p.stage(FoldFrame(lane, 1), 0, 0, 0, Message{From: lane, Seq: uint32(round)})
		return p.seal(round)
	}
	sp, c := newSafepoint(3), newCommittedExchange()
	sp.complete(2, staged(2, 0))
	sp.complete(2, staged(2, 1)) // lane 2 runs a round ahead
	sp.complete(0, staged(0, 0))
	sp.complete(1, nil) // lane 1 staged nothing in round 0
	sp.syncExchange(1, c)
	sp.complete(1, staged(1, 1))
	sp.complete(0, nil)
	sp.syncExchange(1, c) // a second lane's Consume in the same round: no-op
	want := [][2]int{{0, 0}, {2, 0}}
	check := func() {
		t.Helper()
		q := c.queues[0]
		if len(q) != len(want) {
			t.Fatalf("committed %d messages, want %d", len(q), len(want))
		}
		for i, m := range q {
			if got := [2]int{m.From, int(m.Seq)}; got != want[i] {
				t.Errorf("message %d is (lane, round) %v, want %v", i, got, want[i])
			}
		}
	}
	check()
	sp.syncExchange(2, c)
	want = append(want, [2]int{1, 1}, [2]int{2, 1})
	check()
	if sp.waits != 0 {
		t.Errorf("%d blocking waits; every round asked for was already complete", sp.waits)
	}
}

// TestCollectionPanicIsTheLanesVerdict holds a global collection to
// the rule a round has, at the options every run uses and under both
// schedules: the cost budget running out in it aborts the lane, any
// other panic is the lane's recorded failure, and neither leaves
// Run/RunSerial any way but by returning.
func TestCollectionPanicIsTheLanesVerdict(t *testing.T) {
	const lanes = 3
	schedules := []struct {
		name string
		run  func(*Runtime, Plan) error
	}{{"Run", (*Runtime).Run}, {"RunSerial", (*Runtime).RunSerial}}
	for _, sched := range schedules {
		run := func(prepare func(*Shard)) (*Runtime, []int) {
			t.Helper()
			rt, err := New(testConfig(), Options{Shards: lanes, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range rt.Shards() {
				prepare(s)
			}
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
			return rt, bodies
		}

		// A round costs ~250, a collection's set-up 5000: the budget
		// runs out in the first global collection, on every lane.
		rt, bodies := run(func(s *Shard) { s.Heap.Clock().Budget = 1000 })
		for i, s := range rt.Shards() {
			if !s.Aborted() || s.Failure() != "" || s.Panic() != nil || s.OOM() {
				t.Errorf("%s: lane %d after a budget expiry in a collection: aborted=%v failure=%q panic=%v oom=%v; want aborted only",
					sched.name, i, s.Aborted(), s.Failure(), s.Panic(), s.OOM())
			}
			if bodies[i] != 1 {
				t.Errorf("%s: lane %d ran %d round bodies; an aborted lane runs no later round", sched.name, i, bodies[i])
			}
		}

		// A panic that is not the budget, on lane 1 alone: that lane
		// keeps the value, the others run the plan out.
		rt, bodies = run(func(s *Shard) {
			if s.ID == 1 {
				s.Heap.SetHooks(gc.Hooks{PreGC: func() { panic("heap broken") }})
			}
		})
		for i, s := range rt.Shards() {
			if i == 1 {
				if s.Panic() != "heap broken" || !strings.HasPrefix(s.Failure(), "panic in collection after round 0: ") || s.Aborted() {
					t.Errorf("%s: lane 1 after a panic in its collection: panic=%v failure=%q aborted=%v",
						sched.name, s.Panic(), s.Failure(), s.Aborted())
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
	plan := testPlan(3, 4)
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
