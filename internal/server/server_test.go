package server

import (
	"math"
	"testing"

	"beltway/internal/collectors"
	"beltway/internal/core"
	"beltway/internal/heap"
	"beltway/internal/vm"
)

func TestRNGDeterministic(t *testing.T) {
	a, b := newRNG(42), newRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("rng diverged at draw %d", i)
		}
	}
	c := newRNG(43)
	same := 0
	a = newRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("seeds 42 and 43 collided on %d of 100 draws", same)
	}
}

func TestZipfSkewAndDeterminism(t *testing.T) {
	const n = 1000
	z := newZipf(n, 0.99)
	r := newRNG(7)
	counts := make([]int, n)
	for i := 0; i < 200000; i++ {
		k := z.Sample(r)
		if k < 0 || k >= n {
			t.Fatalf("sample %d out of range [0,%d)", k, n)
		}
		counts[k]++
	}
	if counts[0] <= counts[1] || counts[1] <= counts[10] || counts[10] <= counts[100] {
		t.Fatalf("popularity not monotone in rank: c0=%d c1=%d c10=%d c100=%d",
			counts[0], counts[1], counts[10], counts[100])
	}
	// The head must dominate: rank 0 of a theta=0.99 zipfian over 1000
	// keys draws ~12% of traffic.
	if frac := float64(counts[0]) / 200000; frac < 0.05 {
		t.Fatalf("rank 0 drew only %.3f of traffic; distribution too flat", frac)
	}
	// Identical streams for identical seeds.
	z2, r2 := newZipf(n, 0.99), newRNG(7)
	z3, r3 := newZipf(n, 0.99), newRNG(7)
	for i := 0; i < 1000; i++ {
		if z2.Sample(r2) != z3.Sample(r3) {
			t.Fatalf("zipf diverged at draw %d", i)
		}
	}
}

func TestZipfGrow(t *testing.T) {
	z := newZipf(100, 0.8)
	z.Grow(200)
	fresh := newZipf(200, 0.8)
	if math.Abs(z.zetan-fresh.zetan) > 1e-9 {
		t.Fatalf("incremental zeta %v != fresh %v", z.zetan, fresh.zetan)
	}
	r := newRNG(3)
	for i := 0; i < 10000; i++ {
		if k := z.Sample(r); k < 0 || k >= 200 {
			t.Fatalf("post-grow sample %d out of range", k)
		}
	}
}

func TestParseSLO(t *testing.T) {
	slo, err := ParseSLO("p99=500000,p99.9=2e6,max=1e7")
	if err != nil {
		t.Fatal(err)
	}
	if len(slo.Targets) != 3 || slo.Targets[0].Quantile != "p99" ||
		slo.Targets[1].Quantile != "p999" || slo.Targets[2].Quantile != "max" {
		t.Fatalf("bad targets: %+v", slo.Targets)
	}
	if slo.Targets[1].Cost != 2e6 {
		t.Fatalf("p999 bound = %v, want 2e6", slo.Targets[1].Cost)
	}
	if _, err := ParseSLO("p42=1"); err == nil {
		t.Fatal("accepted unknown quantile p42")
	}
	if _, err := ParseSLO("p99"); err == nil {
		t.Fatal("accepted term without bound")
	}
	if _, err := ParseSLO("p99=-5"); err == nil {
		t.Fatal("accepted negative bound")
	}
	if empty, err := ParseSLO(""); err != nil || len(empty.Targets) != 0 {
		t.Fatalf("empty SLO: %v %+v", err, empty)
	}
}

func TestSummarizeExact(t *testing.T) {
	var lats []float64
	for i := 1000; i >= 1; i-- { // reversed: Summarize must sort
		lats = append(lats, float64(i))
	}
	d := Summarize(lats)
	if d.Count != 1000 || d.Max != 1000 {
		t.Fatalf("count=%d max=%v", d.Count, d.Max)
	}
	if d.P50 != 500 || d.P99 != 990 || d.P999 != 999 {
		t.Fatalf("p50=%v p99=%v p999=%v", d.P50, d.P99, d.P999)
	}
	if math.Abs(d.Mean-500.5) > 1e-9 {
		t.Fatalf("mean=%v", d.Mean)
	}
	verdicts := SLO{Targets: []Target{
		{Quantile: "p99", Cost: 990},
		{Quantile: "p999", Cost: 990},
	}}.Evaluate(d)
	if !verdicts[0].Pass || verdicts[1].Pass {
		t.Fatalf("verdicts: %+v", verdicts)
	}
}

// newTestHeap builds a small Beltway heap sized for the given config.
func newTestHeap(t *testing.T, sc Config, factor float64) (*core.Heap, *vm.Mutator, *heap.Registry) {
	t.Helper()
	frame := 4096
	hb := int(float64(sc.EstLiveBytes()) * factor)
	hb = (hb/frame + 1) * frame
	cfg, err := collectors.Parse("25.25", collectors.Options{HeapBytes: hb, FrameBytes: frame})
	if err != nil {
		t.Fatal(err)
	}
	types := heap.NewRegistry()
	h, err := core.New(cfg, types)
	if err != nil {
		t.Fatal(err)
	}
	return h, vm.New(h), types
}

func testConfig() Config {
	c := Scaled(0.1)
	return c
}

// serve runs sc's whole script on a heap of factor times its live
// estimate, every request passing through obs (if non-nil), and returns
// the loop with what ended it (nil, or out of memory part-way).
func serve(t *testing.T, sc Config, factor float64, obs Observer) (*Loop, error) {
	t.Helper()
	_, m, types := newTestHeap(t, sc, factor)
	loop, err := NewLoop(sc, LoopOpts{Observer: obs})
	if err != nil {
		t.Fatal(err)
	}
	return loop, m.Run(func() {
		loop.Start(m, types)
		for !loop.Done() {
			loop.RunBatch()
		}
	})
}

// runLoop serves sc's whole script and reports it, recording each
// phase's raw stream in arrival order through the loop's Observer (nil
// for a phase never entered).
func runLoop(t *testing.T, sc Config, factor float64) (*Report, streams) {
	t.Helper()
	var raw streams
	loop, err := serve(t, sc, factor, &raw)
	if err != nil {
		t.Fatalf("server loop: %v", err)
	}
	return loop.Report(SLO{}), raw
}

// streams is an Observer that records every request's latency, per
// phase: the raw streams a Report does not carry.
type streams [][]float64

func (s *streams) Request(_, phase, _ int, _, latency, _ float64) {
	for len(*s) <= phase {
		*s = append(*s, nil)
	}
	(*s)[phase] = append((*s)[phase], latency)
}

func TestLoopDeterministic(t *testing.T) {
	sc := testConfig()
	a, aLats := runLoop(t, sc, 4)
	b, bLats := runLoop(t, sc, 4)
	if a.StoreChecksum != b.StoreChecksum {
		t.Fatalf("checksums differ: %x vs %x", a.StoreChecksum, b.StoreChecksum)
	}
	if len(aLats) != len(bLats) {
		t.Fatalf("phases entered differ: %d vs %d", len(aLats), len(bLats))
	}
	for p := range aLats {
		if len(aLats[p]) != len(bLats[p]) {
			t.Fatalf("phase %d request counts differ: %d vs %d", p, len(aLats[p]), len(bLats[p]))
		}
		for i := range aLats[p] {
			if aLats[p][i] != bLats[p][i] {
				t.Fatalf("phase %d latency %d differs: %v vs %v", p, i, aLats[p][i], bLats[p][i])
			}
		}
	}
	if a.Overall.Requests != sc.TotalRequests() {
		t.Fatalf("served %d requests, want %d", a.Overall.Requests, sc.TotalRequests())
	}
}

func TestLoopHeapSizeChangesTail(t *testing.T) {
	// Different heap sizes must change GC scheduling, and with it the
	// stream's pause-overlap profile — but never the request mix.
	sc := testConfig()
	tight, _ := runLoop(t, sc, 2.5)
	roomy, _ := runLoop(t, sc, 6)
	if tight.Overall.Requests != roomy.Overall.Requests {
		t.Fatalf("request counts differ: %d vs %d", tight.Overall.Requests, roomy.Overall.Requests)
	}
	if tight.Overall.Reads != roomy.Overall.Reads {
		t.Fatalf("read counts differ: %d vs %d", tight.Overall.Reads, roomy.Overall.Reads)
	}
	if tight.StoreChecksum != roomy.StoreChecksum {
		t.Fatalf("store contents depend on heap size: %x vs %x", tight.StoreChecksum, roomy.StoreChecksum)
	}
}

func TestLoopPhases(t *testing.T) {
	sc := testConfig()
	rep, _ := runLoop(t, sc, 4)
	if len(rep.Phases) != 3 {
		t.Fatalf("have %d phases, want 3", len(rep.Phases))
	}
	for i, p := range rep.Phases {
		if p.Requests != sc.Phases[i].Requests {
			t.Fatalf("phase %d served %d requests, want %d", i, p.Requests, sc.Phases[i].Requests)
		}
		frac := float64(p.Reads) / float64(p.Requests)
		if math.Abs(frac-sc.Phases[i].ReadFrac) > 0.1 {
			t.Fatalf("phase %d read fraction %.3f, want ~%.2f", i, frac, sc.Phases[i].ReadFrac)
		}
		if p.Latency.P50 <= 0 || p.Latency.Max < p.Latency.P999 || p.Latency.P999 < p.Latency.P99 {
			t.Fatalf("phase %d distribution not monotone: %+v", i, p.Latency)
		}
		if p.WorstInflation < 1 {
			t.Fatalf("phase %d worst inflation %v < 1", i, p.WorstInflation)
		}
	}
	if rep.Overall.Requests != sc.TotalRequests() {
		t.Fatalf("overall %d != total %d", rep.Overall.Requests, sc.TotalRequests())
	}
}

// TestReportLoopsOneLane: the report of a run's one lane is the loop's
// own report, however often it is taken and whatever the SLO.
func TestReportLoopsOneLane(t *testing.T) {
	sc := testConfig()
	loop, err := serve(t, sc, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	rep := loop.Report(SLO{})
	slo := SLO{Targets: []Target{{Quantile: "p99", Cost: rep.Overall.Latency.P99}}}
	again := ReportLoops([]*Loop{loop}, slo)
	if again.StoreChecksum != rep.StoreChecksum || again.Shards != 1 {
		t.Fatalf("a second report changed the checksum or the lane count: %+v", again)
	}
	if again.Overall.Latency != rep.Overall.Latency {
		t.Fatalf("a second report changed the distribution:\n%+v\n%+v",
			again.Overall.Latency, rep.Overall.Latency)
	}
	if !again.Passed || len(again.Verdicts) != 1 || !again.Verdicts[0].Pass {
		t.Fatalf("verdicts: %+v", again.Verdicts)
	}
}

func TestReportLoopsAggregates(t *testing.T) {
	sc := testConfig()
	sc2 := sc
	sc2.Seed = sc.Seed + 1
	var loops []*Loop
	var reports []*Report
	for _, c := range []Config{sc, sc2} {
		loop, err := serve(t, c, 4, nil)
		if err != nil {
			t.Fatal(err)
		}
		loops, reports = append(loops, loop), append(reports, loop.Report(SLO{}))
	}
	a, b := reports[0], reports[1]
	merged := ReportLoops(loops, SLO{})
	if merged.Shards != 2 {
		t.Fatalf("shards=%d", merged.Shards)
	}
	if merged.Overall.Requests != a.Overall.Requests+b.Overall.Requests {
		t.Fatalf("merged requests %d != %d+%d", merged.Overall.Requests, a.Overall.Requests, b.Overall.Requests)
	}
	if merged.Overall.Reads != a.Overall.Reads+b.Overall.Reads {
		t.Fatalf("merged reads wrong")
	}
	if max := math.Max(a.Overall.Latency.Max, b.Overall.Latency.Max); merged.Overall.Latency.Max != max {
		t.Fatalf("merged max %v, want %v", merged.Overall.Latency.Max, max)
	}
}

func TestEstLiveBytes(t *testing.T) {
	sc := testConfig()
	est := sc.EstLiveBytes()
	if est <= 0 {
		t.Fatalf("estimate %d", est)
	}
	// The estimate must be in the right ballpark: a run at 4x estimate
	// completes (checked by the tests above), and the store's value
	// payload alone is within the estimate.
	minPayload := sc.MaxKeys() * (3 + valueWordsMin) * 4
	if est < minPayload {
		t.Fatalf("estimate %d below minimum payload %d", est, minPayload)
	}
}
