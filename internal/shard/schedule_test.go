package shard

import (
	"testing"

	"beltway/internal/gc"
	"beltway/internal/stats"
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
				s.Poll()
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
			if got := rt.Result().Rounds; got != rounds {
				t.Errorf("%s/%d lanes: Result.Rounds %d, want %d", c.name, lanes, got, rounds)
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

// TestRunRaisesCollectionPanicOnCaller checks a panic out of a global
// collection — here the cost budget running out in it, on whichever
// lane's goroutine arrived last — stops every lane and surfaces on
// Run's caller, where the harness and the engine recover it, instead of
// taking the process down from a goroutine nobody can recover on.
func TestRunRaisesCollectionPanicOnCaller(t *testing.T) {
	rt, err := New(testConfig(), Options{Shards: 3, Seed: 1, GCWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range rt.Shards() {
		s.Heap.Clock().Budget = 1000 // a round costs ~250, a collection's set-up 5000
	}
	bodies := make([]int, len(rt.Shards())) // round bodies run, per lane
	defer func() {
		if _, ok := recover().(stats.BudgetExceeded); !ok {
			t.Error("Run did not raise the collection's BudgetExceeded on its caller")
		}
		for lane, n := range bodies {
			if n != 1 {
				t.Errorf("lane %d ran %d round bodies; the plan should stop at the failed collection", lane, n)
			}
		}
	}()
	_ = rt.Run(Plan{Rounds: 4, CollectEvery: 1, Body: func(r int, s *Shard) {
		bodies[s.ID]++
		s.M.AllocGlobal(s.Heap.Space().Types.DefineScalar("t.leaf", 0, 1), 0)
		s.M.Work(10)
	}})
	t.Error("Run returned normally")
}
