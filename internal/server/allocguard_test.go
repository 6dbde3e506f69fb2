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
// what it allocates comes on top of the run's peak: a second sorted copy
// or a materialised overall merge is a tenth more bytes per request and
// a growth step of the Go heap (EXPERIMENTS.md "The server's measuring
// path"). Loop.Report may allocate one float per request — the buffer its
// phases are sorted in; the raw one is the loop's — and MergeReports two
// per request, one raw and one sorted, each plus a constant (the Report,
// its slice headers, size-class rounding) that does not grow with the run.
func TestReportAllocBudget(t *testing.T) {
	const fixed = 32 << 10
	for _, perPhase := range []int{2000, 20000} {
		n := 3 * perPhase
		a := loopOf(synthLane(11, []int{perPhase, perPhase, perPhase}))
		b := loopOf(synthLane(13, []int{perPhase, perPhase, perPhase}))
		var reports [2]*Report
		if got, limit := allocatedBy(func() { reports[0] = a.Report(refSLO) }), uint64(8*n+fixed); got > limit {
			t.Errorf("Loop.Report of %d requests allocates %d bytes, want at most %d (one float a request)", n, got, limit)
		}
		reports[1] = b.Report(refSLO)
		var merged *Report
		if got, limit := allocatedBy(func() { merged = MergeReports(reports[:], refSLO) }), uint64(2*8*2*n+fixed); got > limit {
			t.Errorf("MergeReports of %d requests allocates %d bytes, want at most %d (two floats a request)", 2*n, got, limit)
		}
		if merged.Overall.Requests != 2*n {
			t.Fatalf("merged %d requests, want %d", merged.Overall.Requests, 2*n)
		}
	}
}
