package shard

import "sync"

// safepoint is the only state the lanes of Runtime.Run share and mutate
// while a plan runs, and rendezvous is the only place one lane waits for
// another: at a Plan.CollectEvery boundary, until every lane has arrived
// (a global collection needs every heap quiescent). Between global
// collections a lane takes no lock at all. A dead lane still walks its
// rounds, so it still arrives at every rendezvous.
type safepoint struct {
	mu   sync.Mutex
	cond *sync.Cond

	lanes   int
	arrived int    // lanes parked at the collection rendezvous in progress
	gen     uint64 // bumped when a rendezvous opens
	waits   int    // rendezvous calls that had to block
}

func newSafepoint(lanes int) *safepoint {
	sp := &safepoint{lanes: lanes}
	sp.cond = sync.NewCond(&sp.mu)
	return sp
}

// rendezvous blocks until every lane has called it. The last to arrive
// runs work — all the others are parked, so work owns every lane's
// state, ordered after their writes and before their next reads by mu
// — and then releases them.
func (sp *safepoint) rendezvous(work func()) {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	if sp.arrived++; sp.arrived < sp.lanes {
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
