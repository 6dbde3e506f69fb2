package shard

import (
	"reflect"
	"testing"

	"beltway/internal/collectors"
	"beltway/internal/core"
	"beltway/internal/gc"
	"beltway/internal/telemetry"
)

// testConfig is a small older-first configuration: 4 KiB frames, 256 KiB
// heap per shard — big enough to run the test bodies, small enough that
// every shard collects many times.
func testConfig() core.Config {
	return collectors.XX100(25, collectors.Options{HeapBytes: 256 << 10, FrameBytes: 4 << 10})
}

func newTestRuntime(t *testing.T, shards int, validate bool) *Runtime {
	t.Helper()
	rt, err := New(testConfig(), Options{
		Shards:    shards,
		Seed:      20020617,
		Validate:  validate,
		Telemetry: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

// testPlan builds a deterministic rounds plan: every shard allocates a
// linked chain with RNG-derived payloads and keeps the chain head alive
// across rounds, and every second round boundary is a global collection
// — exercising allocation, barriers, local and global collection on
// every shard.
func testPlan(rounds int) Plan {
	return Plan{
		Rounds:       rounds,
		CollectEvery: 2,
		Body: func(r int, s *Shard) {
			types := s.Heap.Space().Types
			node := types.Lookup("t.node")
			if node == nil {
				node = types.DefineScalar("t.node", 2, 4)
			}
			s.M.Push()
			var last gc.Handle
			for i := 0; i < 40; i++ {
				h := s.M.Alloc(node, 0)
				s.M.SetData(h, 0, uint32(s.Rng.Intn(1<<16)))
				s.M.SetData(h, 1, uint32(r))
				s.M.SetRef(h, 0, last)
				last = h
				s.M.Work(1 + s.Rng.Intn(4))
			}
			s.M.Keep(last)
			s.M.Pop()
		},
	}
}

// TestParallelMatchesSerial is the package's core determinism claim:
// the same plan executed on N goroutines (Run) and replayed one shard
// at a time on one goroutine (RunSerial) yields bit-identical
// per-shard outcomes — validated live graphs, clocks, and counters.
func TestParallelMatchesSerial(t *testing.T) {
	const shards, rounds = 4, 6
	par := newTestRuntime(t, shards, true)
	ser := newTestRuntime(t, shards, true)
	if err := par.Run(testPlan(rounds)); err != nil {
		t.Fatal(err)
	}
	if err := ser.RunSerial(testPlan(rounds)); err != nil {
		t.Fatal(err)
	}
	for i := range par.Shards() {
		p, q := par.Shards()[i], ser.Shards()[i]
		if p.Dead() || q.Dead() {
			t.Fatalf("shard %d died: parallel=%v serial=%v", i, p.Err(), q.Err())
		}
		if err := p.V.Check(); err != nil {
			t.Fatalf("shard %d parallel validator: %v", i, err)
		}
		if err := q.V.Check(); err != nil {
			t.Fatalf("shard %d serial validator: %v", i, err)
		}
		pf, qf := p.V.LiveFingerprint(), q.V.LiveFingerprint()
		if pf != qf {
			t.Errorf("shard %d live fingerprints diverge between schedules", i)
		}
		if pt, qt := p.Heap.Clock().TotalTime(), q.Heap.Clock().TotalTime(); pt != qt {
			t.Errorf("shard %d clocks diverge: parallel %v serial %v", i, pt, qt)
		}
		if p.Heap.Clock().Counters != q.Heap.Clock().Counters {
			t.Errorf("shard %d counters diverge:\nparallel %+v\nserial   %+v",
				i, p.Heap.Clock().Counters, q.Heap.Clock().Counters)
		}
		if pc, qc := p.Heap.Collections(), q.Heap.Collections(); pc != qc {
			t.Errorf("shard %d collections diverge: %d vs %d", i, pc, qc)
		}
	}
	if pm, sm := par.Makespan(), ser.Makespan(); pm != sm {
		t.Errorf("makespan diverges: parallel %v serial %v", pm, sm)
	}
}

// TestShardOOMDeterministic starves the shards (4-frame minimum heaps,
// ever-growing global live set) and checks the OOM verdicts agree
// between the parallel and serial schedules.
func TestShardOOMDeterministic(t *testing.T) {
	cfg := testConfig()
	cfg.HeapBytes = 16 << 10 // 4 frames: guaranteed starvation
	build := func() *Runtime {
		rt, err := New(cfg, Options{Shards: 3, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		return rt
	}
	plan := Plan{
		Rounds: 8,
		Body: func(r int, s *Shard) {
			types := s.Heap.Space().Types
			node := types.Lookup("t.node")
			if node == nil {
				node = types.DefineScalar("t.node", 1, 2)
			}
			for i := 0; i < 64; i++ {
				s.M.AllocGlobal(node, 0) // immortal from the roots' view: never released
			}
		},
	}
	par, ser := build(), build()
	if err := par.Run(plan); err != nil {
		t.Fatal(err)
	}
	if err := ser.RunSerial(plan); err != nil {
		t.Fatal(err)
	}
	anyOOM := false
	for i := range par.Shards() {
		p, q := par.Shards()[i], ser.Shards()[i]
		if (p.oomErr != nil) != (q.oomErr != nil) {
			t.Errorf("shard %d OOM verdicts diverge: parallel=%v serial=%v", i, p.oomErr, q.oomErr)
		}
		if p.failure != q.failure {
			t.Errorf("shard %d failures diverge: %q vs %q", i, p.failure, q.failure)
		}
		if p.oomErr != nil {
			anyOOM = true
		}
	}
	if !anyOOM {
		t.Error("expected at least one shard to OOM under a 4-frame heap")
	}
}

// TestScalingMakespan checks the point of the exercise: with 4 shards
// doing equal work, the simulated elapsed time is much less than the
// aggregate work — the makespan reflects an N-core machine.
func TestScalingMakespan(t *testing.T) {
	const shards = 4
	rt := newTestRuntime(t, shards, false)
	if err := rt.Run(testPlan(6)); err != nil {
		t.Fatal(err)
	}
	var work float64 // aggregate work: Σ per-shard clock totals
	for _, s := range rt.Shards() {
		work += s.Heap.Clock().TotalTime()
	}
	if rt.Makespan() <= 0 || work <= 0 {
		t.Fatalf("degenerate run: makespan %v, aggregate work %v", rt.Makespan(), work)
	}
	if rt.Makespan() > work/2 {
		t.Errorf("makespan %v not < half of aggregate work %v across %d shards",
			rt.Makespan(), work, shards)
	}
}

// TestMergedTelemetry checks per-shard recorders merge into one
// well-formed stream holding every lane's collections.
func TestMergedTelemetry(t *testing.T) {
	const shards = 3
	rt := newTestRuntime(t, shards, false)
	if err := rt.Run(testPlan(4)); err != nil {
		t.Fatal(err)
	}
	snap := rt.MergedTelemetry()
	if snap == nil {
		t.Fatal("no merged telemetry")
	}
	var want, got uint64
	for _, s := range rt.Shards() {
		want += s.Heap.Clock().Counters.Collections
	}
	for _, e := range snap.Events {
		if e.Kind == telemetry.EvGCEnd {
			got++
		}
	}
	if snap.DroppedEvents == 0 && got != want {
		t.Errorf("merged stream holds %d collections, the clocks counted %d", got, want)
	}
	for i := 1; i < len(snap.Events); i++ {
		if snap.Events[i].Time < snap.Events[i-1].Time {
			t.Fatalf("merged events out of time order at %d", i)
		}
		if snap.Events[i].Seq != snap.Events[i-1].Seq+1 {
			t.Fatalf("merged events not re-stamped at %d", i)
		}
	}
}

// TestRuntimeSingleUse guards the one-plan-per-runtime rule.
func TestRuntimeSingleUse(t *testing.T) {
	rt := newTestRuntime(t, 1, false)
	p := testPlan(1)
	if err := rt.Run(p); err != nil {
		t.Fatal(err)
	}
	if err := rt.Run(p); err == nil {
		t.Error("second Run on one runtime should fail")
	}
}

// TestReleaseHandsEveryLaneOn: after Release no lane's heap or recorder
// can be used, what was read before it is untouched by the runs that
// build on it, and releasing twice is harmless.
func TestReleaseHandsEveryLaneOn(t *testing.T) {
	rt := newTestRuntime(t, 2, false)
	if err := rt.Run(testPlan(4)); err != nil {
		t.Fatal(err)
	}
	snap := rt.MergedTelemetry()
	kept := append([]telemetry.Event(nil), snap.Events...)
	rt.Release()
	rt.Release()
	for _, s := range rt.Shards() {
		if s.Heap.Roots() != nil || s.Heap.Remsets() != nil {
			t.Errorf("shard %d: the released heap still has its root table or remembered sets", s.ID)
		}
		if n := len(s.Tele.Recorder().Events()); n != 0 {
			t.Errorf("shard %d: the released recorder still holds %d events", s.ID, n)
		}
		if s.Rng != nil {
			t.Errorf("shard %d: the released lane still has its RNG", s.ID)
		}
	}
	next := newTestRuntime(t, 2, false)
	if err := next.Run(testPlan(4)); err != nil {
		t.Fatal(err)
	}
	next.Release()
	if !reflect.DeepEqual(snap.Events, kept) {
		t.Error("a snapshot read before Release changed when the next runtime ran")
	}
}
