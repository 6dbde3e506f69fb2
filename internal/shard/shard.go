// Package shard scales the simulator from one mutator to N: each shard
// is a full mutator goroutine driving its own belts-and-increments heap
// (private nursery and mature belts, private cost clock, private
// telemetry). Lanes share nothing; they meet only at a Plan.CollectEvery
// rendezvous, where every heap is quiescent and runs a global
// collection. Between rendezvous no lane ever waits for another.
//
// The design invariant is *schedule independence*: a round interacts
// with nothing but its shard's own state. Every observable per-shard
// outcome — allocation serials, live-graph fingerprint, OOM verdict — is
// therefore a pure function of (config, seed, plan), identical whether
// the rounds ran on N goroutines or were replayed one shard at a time on
// one goroutine. Runtime.Run and Runtime.RunSerial are those two
// schedules, and internal/check's sharded oracle diffs them.
package shard

import (
	"fmt"
	"math/rand"

	"beltway/internal/core"
	"beltway/internal/heap"
	"beltway/internal/telemetry"
	"beltway/internal/vm"
)

// Shard is one mutator lane: a private heap, mutator facade, RNG
// stream and telemetry run. All methods are owner-only —
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

	oomErr  error // the OOM that killed it
	failure string
	// panicked is the recovered value behind a "panic in ..." failure.
	panicked any

	shell laneShell
}

// laneShell is what a lane's M and Tele are built in, kept from run to
// run with the lane as its Heap and Rng are: the type registry (reset, so
// no name or ID of the run before is seen), the mutator facade and the
// telemetry run with its ring and hook closures.
type laneShell struct {
	types heap.Registry
	mut   vm.Mutator
	tele  telemetry.Run
}

// Dead reports whether the shard stopped early (OOM or failure); a dead
// shard skips its remaining rounds.
func (s *Shard) Dead() bool { return s.oomErr != nil || s.failure != "" }

// OOM reports whether the shard ended in out-of-memory (as opposed to
// running to completion or failing some other way).
func (s *Shard) OOM() bool { return s.oomErr != nil }

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
// global collection — and is the one rule for how either ends: it
// finishes; it returns an error, which is out of memory, the shard's
// terminal verdict; or it panics, which is recovered into a recorded
// failure (a deterministic panic reproduces identically in the serial
// replay, so the verdict stays comparable). A shard stopped either way
// is dead and runs nothing more.
func (s *Shard) step(what string, round int, f func() error) {
	if s.Dead() {
		return
	}
	defer func() {
		if r := recover(); r != nil {
			s.panicked = r
			s.failure = fmt.Sprintf("panic in %s %d: %v", what, round, r)
		}
	}()
	if err := f(); err != nil {
		s.oomErr = err
	}
}
