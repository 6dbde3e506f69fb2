package server

import (
	"runtime"
	"testing"
)

// allocatedBy returns the bytes the Go heap handed out during f (size
// classes rounded up, as the runtime counts them): the least of three
// tries, so that a stray allocation elsewhere in the process costs a
// retry, not a failure.
func allocatedBy(f func()) uint64 {
	least := ^uint64(0)
	var before, after runtime.MemStats
	for try := 0; try < 3; try++ {
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		if d := after.TotalAlloc - before.TotalAlloc; d < least {
			least = d
		}
	}
	return least
}

// A report is built while every lane's simulated heap is still live, so
// what it allocates comes on top of the run's peak (EXPERIMENTS.md "The
// server's measuring path"). A loop on released storage, its report and
// its release — and two such lanes and their one report — allocate a
// fixed allowance (the Loop, the Report, their per-phase slices) that
// does not grow with the run: no latency buffer, no sorted copy of it and
// no merged one. At the commit before, a report took one float a request
// and a merge two.
func TestReportAllocBudget(t *testing.T) {
	const fixed = 4 << 10 // it reads about 1.3 KB for one lane, 1.7 KB for two
	for _, perPhase := range []int{2000, 20000} {
		n := 3 * perPhase
		a := synthLane(11, []int{perPhase, perPhase, perPhase})
		b := synthLane(13, []int{perPhase, perPhase, perPhase})
		for _, l := range []lane{a, b} { // the first loops of a size make the buffers
			loopOf(l).Release()
		}
		var rep *Report
		if got := allocatedBy(func() {
			loop := loopOf(a)
			rep = loop.Report(refSLO)
			loop.Release()
		}); got > fixed {
			t.Errorf("a warm loop of %d requests and its report allocate %d bytes, want at most %d", n, got, fixed)
		}
		if rep.Overall.Requests != n {
			t.Fatalf("reported %d requests, want %d", rep.Overall.Requests, n)
		}
		if got := allocatedBy(func() {
			loops := []*Loop{loopOf(a), loopOf(b)}
			rep = ReportLoops(loops, refSLO)
			for _, l := range loops {
				l.Release()
			}
		}); got > fixed {
			t.Errorf("two warm lanes of %d requests and their report allocate %d bytes, want at most %d", 2*n, got, fixed)
		}
		if rep.Overall.Requests != 2*n {
			t.Fatalf("reported %d requests, want %d", rep.Overall.Requests, 2*n)
		}
	}
}
