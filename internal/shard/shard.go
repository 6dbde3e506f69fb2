// Package shard scales the simulator from one mutator to N: each shard
// is a full mutator goroutine driving its own belts-and-increments heap
// (private nursery and mature belts, private cost clock, private
// telemetry), with cross-shard references routed by value through the
// packed remset.Table key machinery. Shards that share nothing never
// queue behind each other: a lane waits for another only where it reads
// what that lane wrote (Consume) and where every heap must be quiescent
// (a rendezvoused global collection).
//
// The design invariant is *schedule independence*: a round interacts
// with nothing but its shard's own state and the exchange tails sealed
// by the rounds before it, merged in (round, ascending shard) order.
// Every observable per-shard outcome — allocation serials, live-graph
// fingerprint, OOM verdict — is therefore a pure function of (config,
// seed, plan), identical whether the rounds ran on N goroutines or were
// replayed one shard at a time on one goroutine. Runtime.Run and
// Runtime.RunSerial are those two schedules, and internal/check's
// sharded oracle diffs them.
package shard

import (
	"fmt"
	"math/rand"

	"beltway/internal/core"
	"beltway/internal/gc"
	"beltway/internal/heap"
	"beltway/internal/stats"
	"beltway/internal/telemetry"
	"beltway/internal/vm"
)

// msgTypeName is the type every consumed exchange message materializes
// as: a word array holding [seq, payload...] as published.
const msgTypeName = "xchg.msg"

// Shard is one mutator lane: a private heap, mutator facade, RNG
// stream, telemetry run and exchange tail. All methods are owner-only —
// exactly one goroutine drives a shard at a time (the runtime enforces
// this; shards have no internal locking on their fast paths).
type Shard struct {
	ID int
	// Heap is the shard's private collector instance; allocation, write
	// barriers and nursery collections all happen here, shard-locally
	// and lock-free with respect to every other shard.
	Heap *core.Heap
	// M is the vm facade the shard's workload drives.
	M *vm.Mutator
	// V is the shadow-graph validator, non-nil in oracle mode.
	V *vm.Validator
	// Rng is the shard's private workload stream, seeded by
	// StreamSeed(baseSeed, ID).
	Rng *rand.Rand
	// Tele is the shard's private flight recorder, non-nil when the
	// runtime was built with Options.Telemetry. One recorder per shard
	// keeps hook emission single-owner; the runtime merges snapshots at
	// aggregation (telemetry.MergeRunSnapshots).
	Tele *telemetry.Run

	rt      *Runtime
	pending *pendingExchange
	cursors map[int]int // per-channel consume cursor (broadcast streams)
	msgType *heap.TypeDesc
	// Under Run the shard is running round `round`, and has seen the
	// committed exchange merged through the rounds before `synced`.
	// RunSerial merges at every boundary itself and leaves both at zero.
	round, synced int

	dead    bool  // shard hit OOM (or failed); skips remaining rounds
	oomErr  error // the OOM that killed it
	aborted bool  // shard hit its cost budget (stats.BudgetExceeded)
	failure string
	// panicked is the recovered value behind a "panic in ..." failure.
	panicked any
}

// Dead reports whether the shard stopped early (OOM or failure).
func (s *Shard) Dead() bool { return s.dead }

// OOM reports whether the shard ended in out-of-memory (as opposed to
// running to completion or failing some other way).
func (s *Shard) OOM() bool { return s.oomErr != nil }

// Aborted reports whether the shard was stopped by its clock's cost
// budget (the deterministic analog of a timeout).
func (s *Shard) Aborted() bool { return s.aborted }

// Failure returns the non-OOM failure that stopped the shard ("" when
// none).
func (s *Shard) Failure() string { return s.failure }

// Panic returns the value of the panic that stopped the shard, nil when
// it did not panic. Failure has it rendered; a caller that wants a typed
// error (the harness's heap-corruption report) needs the value itself.
func (s *Shard) Panic() any { return s.panicked }

// Err returns the error that stopped the shard, or nil.
func (s *Shard) Err() error {
	if s.oomErr != nil {
		return s.oomErr
	}
	if s.failure != "" {
		return fmt.Errorf("shard %d: %s", s.ID, s.failure)
	}
	return nil
}

// Publish snapshots the data payload of the object h refers to and
// stages it on channel ch. The route is recorded in the shard's
// pending remset.Table under a packed key whose source frame folds the
// shard id into the object's frame index; the payload is staged in
// publish order. Nothing is visible to other shards before the next
// round, and Publish never waits. Reading the payload goes through the
// vm facade, so it is charged to the shard's clock and observed by the
// validator like any other field traffic.
func (s *Shard) Publish(ch int, h gc.Handle) {
	if h == gc.NilHandle {
		return
	}
	n := s.numDataWords(h)
	words := make([]uint32, 1+n)
	s.pending.seq++
	words[0] = s.pending.seq
	for i := 0; i < n; i++ {
		words[1+i] = s.M.GetData(h, i)
	}
	addr := s.Heap.Roots().Get(h)
	f := s.Heap.Space().FrameOf(addr)
	s.pending.stage(FoldFrame(s.ID, f), heap.Frame(ch), addr, ch,
		Message{From: s.ID, Seq: s.pending.seq, Words: words})
}

// Consume materializes the next unconsumed committed message on
// channel ch as a fresh word-array allocation in this shard's heap,
// returning a scope-independent handle (NilHandle when the channel has
// no further committed messages). Each shard consumes the stream
// independently — broadcast, not work-stealing — so consumption never
// touches shared mutable state. Committed means staged in an earlier
// round: under Run the first Consume of a round waits until every shard
// has completed the round before (the one data dependency between
// lanes; see safepoint.syncExchange).
func (s *Shard) Consume(ch int) gc.Handle {
	if s.synced < s.round {
		s.rt.sp.syncExchange(s.round, s.rt.committed)
		s.synced = s.round
	}
	q := s.rt.committed.queues[ch]
	cur := s.cursors[ch]
	if cur >= len(q) {
		return gc.NilHandle
	}
	m := q[cur]
	s.cursors[ch] = cur + 1
	if s.msgType == nil {
		if t := s.Heap.Space().Types.Lookup(msgTypeName); t != nil {
			s.msgType = t
		} else {
			s.msgType = s.Heap.Space().Types.DefineWordArray(msgTypeName)
		}
	}
	h := s.M.AllocGlobal(s.msgType, len(m.Words))
	for i, w := range m.Words {
		s.M.SetData(h, i, w)
	}
	return h
}

// numDataWords mirrors the script interpreter's payload rule: scalars
// expose their data words, word arrays their elements, ref arrays
// nothing (references never cross shards by address).
func (s *Shard) numDataWords(h gc.Handle) int {
	t := s.M.TypeOf(h)
	switch t.Kind {
	case heap.Scalar:
		return t.DataWords
	case heap.WordArray:
		return s.M.Length(h)
	default:
		return 0
	}
}

// runRound executes one round body on the shard.
func (s *Shard) runRound(round int, body func(round int, s *Shard)) {
	s.step("round", round, func() error {
		return s.M.Run(func() { body(round, s) })
	})
}

// collect runs the shard's part of the global collection after a round.
func (s *Shard) collect(round int) {
	s.step("collection after round", round, func() error {
		return s.Heap.Collect(false)
	})
}

// step runs one piece of the plan on the shard — a round body or a
// global collection — and is the one rule for how either stops it: an
// error is out of memory, the shard's terminal verdict; a panic is
// recovered into the cost budget's abort or a recorded failure (a
// deterministic panic reproduces identically in the serial replay, so
// the verdict stays comparable). A dead shard runs nothing.
func (s *Shard) step(what string, round int, f func() error) {
	if s.dead {
		return
	}
	defer func() {
		if r := recover(); r != nil {
			s.dead = true
			if _, ok := r.(stats.BudgetExceeded); ok {
				s.aborted = true
				return
			}
			s.panicked = r
			s.failure = fmt.Sprintf("panic in %s %d: %v", what, round, r)
		}
	}()
	if err := f(); err != nil {
		s.dead = true
		s.oomErr = err
	}
}
