package shard

import (
	"beltway/internal/heap"
	"beltway/internal/remset"
)

// Cross-shard references.
//
// Shards own disjoint heaps, and every collector in this codebase moves
// objects, so a raw address must never cross a shard boundary: the
// moment the owning shard collects, a foreign pointer is stale. The
// exchange instead routes references *by value* through channels with
// epoch (round) granularity:
//
//   - Publish snapshots the object's data payload into the shard's
//     private pending tail, and records the route in the shard's
//     pending remset.Table — the same packed uint64 (src<<32|tgt) key
//     machinery the collectors use, with the shard id folded into the
//     source frame index (FoldFrame) and the channel as the target
//     frame. The fast path is shard-private: no locks, no shared
//     memory.
//   - Ending a round seals what it staged as that round's tail.
//     Publish never waits for anyone.
//   - Sealed tails are merged into the committed routing table and the
//     per-channel message queues in (round, ascending shard) order, so
//     the committed state is schedule-independent: RunSerial merges at
//     every round boundary; Run merges when a later round first calls
//     Consume, once every shard has completed the round before it
//     (safepoint.syncExchange), and what is left when the plan ends.
//   - Consume in round r reads the committed state through round r-1
//     and materializes the payload as a fresh allocation in the
//     consuming shard's own heap, advancing a per-shard cursor, so
//     concurrent consumers never contend and every shard sees the
//     full stream (broadcast semantics).
//
// The committed exchange state a round reads is therefore a pure
// function of per-shard round outcomes, which is what makes the
// parallel schedule bit-replayable on one goroutine (see
// Runtime.RunSerial).

// shardFrameBits is where the shard id is folded into a routing frame
// index. Real frame indexes are far below 2^24 (a 2^24-frame heap at
// the minimum 256-byte frame would be 4 GiB of simulated memory), so
// the fold is collision-free for any configuration the simulator runs.
const shardFrameBits = 24

// FoldFrame folds a shard id into a frame index, producing the source
// key frame used to route that shard's publishes through a
// remset.Table. Distinct shards map the same physical frame index to
// distinct key spaces, exactly like a per-shard arena prefix.
func FoldFrame(shardID int, f heap.Frame) heap.Frame {
	return f | heap.Frame(shardID)<<shardFrameBits
}

// UnfoldFrame splits a folded routing frame back into (shard, frame).
func UnfoldFrame(f heap.Frame) (shardID int, frame heap.Frame) {
	return int(f >> shardFrameBits), f & (1<<shardFrameBits - 1)
}

// Message is one published value in flight between shards: the
// publisher's id, a publish sequence number unique within the
// publisher, and the snapshotted data payload.
type Message struct {
	From  int
	Seq   uint32
	Words []uint32
}

// route is one pending routing-table entry, kept in publish order so
// the merge is deterministic (the Table itself is a set).
type route struct {
	src, tgt heap.Frame
	slot     heap.Addr
}

// tail is what one shard staged in one round: the unit the exchange
// merges.
type tail struct {
	round  int
	routes []route   // fresh inserts in publish order
	msgs   []Message // payload queue in publish order
	chans  []int     // msgs[i] targets channel chans[i]
}

// pendingExchange is a shard's private, lock-free (single-owner)
// exchange state: the tail of the round in progress, and what outlives
// a round.
type pendingExchange struct {
	table *remset.Table // dedup/index over the run's routes, packed-key keyed
	tail                // staged since the last seal (Run) or merge (RunSerial)
	seq   uint32        // publish sequence counter (never reset)
}

func newPendingExchange() *pendingExchange {
	return &pendingExchange{table: remset.NewTable()}
}

// seal closes the round's tail and starts the next, returning nil for a
// round that staged nothing (a route is only ever staged with a
// message). The sealed tail is no longer the shard's: another lane's
// goroutine may merge it.
func (p *pendingExchange) seal(round int) *tail {
	if len(p.msgs) == 0 {
		return nil
	}
	t := p.tail
	t.round = round
	p.tail = tail{}
	return &t
}

// stage records one publish. The remset table dedups routes (it has
// set semantics, like the collectors' remsets); the message queue is
// the authoritative payload order.
func (p *pendingExchange) stage(src, tgt heap.Frame, slot heap.Addr, ch int, m Message) {
	if p.table.Insert(src, tgt, slot) {
		p.routes = append(p.routes, route{src, tgt, slot})
	}
	p.msgs = append(p.msgs, m)
	p.chans = append(p.chans, ch)
}

// committedExchange is the runtime's merged exchange state. Shard
// goroutines read it without synchronization: RunSerial has only one,
// and Run orders every merge against every read through the safepoint
// (see safepoint.syncExchange).
type committedExchange struct {
	routes *remset.Table // merged routing table across all shards
	queues map[int][]Message
	merged int // routing entries merged over the run (telemetry)
}

func newCommittedExchange() *committedExchange {
	return &committedExchange{routes: remset.NewTable(), queues: map[int][]Message{}}
}

// merge drains one tail into the committed state. Callers merge in
// (round, ascending shard) order; within a tail, publish order is
// preserved — together that fixes the committed state independent of
// the parallel schedule.
func (c *committedExchange) merge(t *tail) {
	for _, r := range t.routes {
		if c.routes.Insert(r.src, r.tgt, r.slot) {
			c.merged++
		}
	}
	t.routes = t.routes[:0]
	for i, m := range t.msgs {
		ch := t.chans[i]
		c.queues[ch] = append(c.queues[ch], m)
	}
	t.msgs = t.msgs[:0]
	t.chans = t.chans[:0]
}
