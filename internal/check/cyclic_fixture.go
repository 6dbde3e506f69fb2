package check

// CyclicGarbageScript builds the demonstration workload behind the
// committed cyclic-xx25 fixture: the cyclic-garbage pattern the
// paper's completeness discussion warns about, expressed in the script
// dialect.
//
// Phase 1 allocates a ring of rooted ref-arrays, forcing a nursery
// collection every few allocations so the ring's nodes are promoted into
// *different* increments of the mature belt. Phase 2 links the ring in
// both directions — every node now holds pointers into its neighbors'
// increments, all captured by remembered sets. Phase 3 releases every
// root: the ring is garbage, but any *incremental* collection condemns
// one increment at a time and resurrects its slice of the ring through
// the neighbors' remsets. Phase 4 applies rooted allocation pressure
// that fits comfortably once the ring is reclaimed.
//
// On an incomplete configuration (X.X) the ring is never reclaimed and
// phase 4 dies with OOM; on the complete X.X.100 the third belt's
// collection condemns all the ring's increments at once, reclaims it,
// and the run completes. The committed fixture pins both outcomes at an
// explicit heap size.
func CyclicGarbageScript() Script {
	const (
		ringNodes    = 200 // chk.arr, 24 refs each
		collectEvery = 25
		fillerNodes  = 800 // chk.node globals
	)
	var s Script
	for i := 0; i < ringNodes; i++ {
		s = append(s, Op{Kind: OpAllocArr, A: 23}) // length 24
		if i%collectEvery == collectEvery-1 {
			s = append(s, Op{Kind: OpCollect})
		}
	}
	for i := 0; i < ringNodes; i++ {
		s = append(s, Op{Kind: OpSetRef, A: byte(i), B: 0, C: byte((i + 1) % ringNodes)})
		s = append(s, Op{Kind: OpSetRef, A: byte(i), B: 1, C: byte((i + ringNodes - 1) % ringNodes)})
	}
	for i := 0; i < ringNodes; i++ {
		s = append(s, Op{Kind: OpRelease, A: 0})
	}
	for i := 0; i < fillerNodes; i++ {
		s = append(s, Op{Kind: OpAllocGlobal})
	}
	return s
}
