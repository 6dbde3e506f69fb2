package shard

import (
	"slices"
	"sync"
)

// safepoint is the only state the lanes of Runtime.Run share and
// mutate while a plan runs, and the only place one lane waits for
// another. A lane never waits at a round boundary as such; it waits
//
//   - in syncExchange, the first time a round calls Consume, until
//     every lane has completed the round before (what it is about to
//     read is what the others staged up to there);
//   - in rendezvous, at a Plan.CollectEvery boundary, until every lane
//     has arrived (a global collection needs every heap quiescent).
//
// A lane that does neither — the server and benchmark bodies — takes
// the mutex once a round in complete and never blocks. Waits cannot
// cycle: the lane that has completed the fewest rounds only ever waits
// for rounds every other lane has already completed.
type safepoint struct {
	mu   sync.Mutex
	cond *sync.Cond

	// done[i] is the number of rounds lane i has completed. A dead lane
	// still walks its rounds, so its counter keeps advancing.
	done []int
	// sealed[i] holds lane i's sealed exchange tails, oldest first, that
	// are not yet in the committed exchange; those of rounds < merged
	// are.
	sealed [][]*tail
	merged int

	arrived int    // lanes parked at the collection rendezvous in progress
	gen     uint64 // bumped when a rendezvous opens

	waits int // syncExchange and rendezvous calls that had to block
}

func newSafepoint(lanes int) *safepoint {
	sp := &safepoint{done: make([]int, lanes), sealed: make([][]*tail, lanes)}
	sp.cond = sync.NewCond(&sp.mu)
	return sp
}

// completed is the number of rounds every lane has completed. The
// caller holds mu.
func (sp *safepoint) completed() int { return slices.Min(sp.done) }

// complete ends a round of lane: it hands over what the round staged
// (nil when it staged nothing) and advances the lane's counter, waking
// the waiters only when the slowest lane moved.
func (sp *safepoint) complete(lane int, staged *tail) {
	sp.mu.Lock()
	if staged != nil {
		sp.sealed[lane] = append(sp.sealed[lane], staged)
	}
	before := sp.completed()
	sp.done[lane]++
	if sp.completed() > before {
		sp.cond.Broadcast()
	}
	sp.mu.Unlock()
}

// syncExchange blocks until every lane has completed the given number
// of rounds and returns with their sealed tails merged into c — by
// whichever caller gets here first, in (round, ascending lane) order,
// which is the order RunSerial's per-round merges produce.
//
// The caller then reads c without a lock. Lane A, running round r,
// returns from syncExchange(r) after the merge of rounds < r, ordered
// before its reads by mu. The next write to c merges round r, which
// waits for done[A] > r; A advances its counter, under mu, only after
// its last read of the round. So every write to c happens before or
// after every read of it, and a lane in round r sees the tails through
// r-1 exactly, however far ahead the other lanes have run.
func (sp *safepoint) syncExchange(rounds int, c *committedExchange) {
	sp.mu.Lock()
	if sp.completed() < rounds {
		sp.waits++
		for sp.completed() < rounds {
			sp.cond.Wait()
		}
	}
	for ; sp.merged < rounds; sp.merged++ {
		for lane, q := range sp.sealed {
			if len(q) > 0 && q[0].round == sp.merged {
				c.merge(q[0])
				sp.sealed[lane] = q[1:]
			}
		}
	}
	sp.mu.Unlock()
}

// rendezvous blocks until every lane has called it. The last to arrive
// runs work — all the others are parked, so work owns every lane's
// state, ordered after their writes and before their next reads by mu
// — and then releases them.
func (sp *safepoint) rendezvous(work func()) {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	if sp.arrived++; sp.arrived < len(sp.done) {
		sp.waits++
		for gen := sp.gen; sp.gen == gen; {
			sp.cond.Wait()
		}
		return
	}
	work()
	sp.arrived = 0
	sp.gen++
	sp.cond.Broadcast()
}
