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
	cond sync.Cond

	parties int
	arrived int    // lanes parked at the collection rendezvous in progress
	gen     uint64 // bumped when a rendezvous opens
	waits   int    // rendezvous calls that had to block

	lanes      sync.WaitGroup // the lane goroutines of Run
	collecting sync.WaitGroup // the heaps of a side-by-side global collection
}

// reset readies the safepoint for a plan on lanes lanes; nothing may be
// waiting in it.
func (sp *safepoint) reset(lanes int) {
	sp.cond.L = &sp.mu
	sp.parties, sp.arrived, sp.gen, sp.waits = lanes, 0, 0, 0
}

// rendezvous blocks until every lane has called it after round. The last
// to arrive runs work(round) — all the others are parked, so work owns
// every lane's state, ordered after their writes and before their next
// reads by mu — and then releases them.
func (sp *safepoint) rendezvous(work func(round int), round int) {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	if sp.arrived++; sp.arrived < sp.parties {
		sp.waits++
		for gen := sp.gen; sp.gen == gen; {
			sp.cond.Wait()
		}
		return
	}
	work(round)
	sp.arrived = 0
	sp.gen++
	sp.cond.Broadcast()
}
