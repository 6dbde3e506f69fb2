package server

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"sort"
	"sync"
	"testing"

	"beltway/internal/gc"
	"beltway/internal/stats"
)

// The reference: Summarize, Loop.Report and MergeReports as they stood
// before a report was built from one buffer sorted once and merged —
// every stream copied and fully sorted, per phase and again overall, in
// the loop and again in the merge. Kept verbatim (over a loop's per-phase
// streams, which is how the loop then held them) as what the code in
// report.go is held to, bit for bit.

func refSummarize(latencies []float64) *Dist {
	d := &Dist{Count: len(latencies)}
	if len(latencies) == 0 {
		return d
	}
	sorted := append([]float64(nil), latencies...)
	sort.Float64s(sorted)
	var sum float64
	for _, v := range sorted {
		sum += v
	}
	d.P50 = stats.NearestRank(sorted, 0.50)
	d.P95 = stats.NearestRank(sorted, 0.95)
	d.P99 = stats.NearestRank(sorted, 0.99)
	d.P999 = stats.NearestRank(sorted, 0.999)
	d.Max = sorted[len(sorted)-1]
	d.Mean = sum / float64(len(sorted))
	return d
}

// lane is what a Loop has measured when Report is called: one stream per
// phase (nil for a phase never entered) and the per-phase counts.
type lane struct {
	phases    []Phase
	lats      [][]float64
	reads     []int
	writes    []int
	paused    []int
	worstInfl []float64
	checksum  uint64
}

func refReport(l lane, slo SLO) *Report {
	done := 0
	for _, s := range l.lats {
		done += len(s)
	}
	rep := &Report{
		Shards:         1,
		StoreChecksum:  l.checksum,
		SLO:            slo,
		PhaseLatencies: make([][]float64, len(l.phases)),
		Latencies:      make([]float64, 0, done),
	}
	for i, p := range l.phases {
		rep.PhaseLatencies[i] = l.lats[i]
		rep.Latencies = append(rep.Latencies, l.lats[i]...)
		rep.Phases = append(rep.Phases, refPhaseReport(p.Name, l.lats[i],
			l.reads[i], l.writes[i], l.paused[i], l.worstInfl[i]))
	}
	o := &rep.Overall
	*o = refPhaseReport("overall", rep.Latencies, 0, 0, 0, 0)
	for _, p := range rep.Phases {
		o.Reads += p.Reads
		o.Writes += p.Writes
		o.PausedRequests += p.PausedRequests
		if p.WorstInflation > o.WorstInflation {
			o.WorstInflation = p.WorstInflation
		}
	}
	refFinishPhase(o)
	rep.Verdicts = slo.Evaluate(&o.Latency)
	rep.Passed = rep.Violations() == 0
	return rep
}

func refMergeReports(reports []*Report, slo SLO) *Report {
	if len(reports) == 0 {
		return &Report{SLO: slo, Passed: true}
	}
	if len(reports) == 1 {
		r := *reports[0]
		r.SLO = slo
		r.Verdicts = slo.Evaluate(&r.Overall.Latency)
		r.Passed = r.Violations() == 0
		return &r
	}
	nPhases := len(reports[0].Phases)
	out := &Report{
		Shards:         0,
		SLO:            slo,
		PhaseLatencies: make([][]float64, nPhases),
	}
	out.StoreChecksum = reports[0].StoreChecksum
	for i, r := range reports {
		out.Shards += r.Shards
		if i > 0 {
			out.StoreChecksum = out.StoreChecksum*1099511628211 ^ r.StoreChecksum
		}
	}
	total := 0
	for _, r := range reports {
		total += len(r.Latencies)
	}
	out.Latencies = make([]float64, 0, total)
	for p := 0; p < nPhases; p++ {
		merged := PhaseReport{Name: reports[0].Phases[p].Name}
		n := 0
		for _, r := range reports {
			n += len(r.PhaseLatencies[p])
		}
		out.PhaseLatencies[p] = make([]float64, 0, n)
		for _, r := range reports {
			out.PhaseLatencies[p] = append(out.PhaseLatencies[p], r.PhaseLatencies[p]...)
			merged.Reads += r.Phases[p].Reads
			merged.Writes += r.Phases[p].Writes
			merged.PausedRequests += r.Phases[p].PausedRequests
			if r.Phases[p].WorstInflation > merged.WorstInflation {
				merged.WorstInflation = r.Phases[p].WorstInflation
			}
		}
		merged.Latency = *refSummarize(out.PhaseLatencies[p])
		merged.Requests = merged.Latency.Count
		merged.PausedFrac = frac(merged.PausedRequests, merged.Requests)
		out.Phases = append(out.Phases, merged)
		out.Latencies = append(out.Latencies, out.PhaseLatencies[p]...)
	}
	o := &out.Overall
	o.Name = "overall"
	for _, p := range out.Phases {
		o.Reads += p.Reads
		o.Writes += p.Writes
		o.PausedRequests += p.PausedRequests
		if p.WorstInflation > o.WorstInflation {
			o.WorstInflation = p.WorstInflation
		}
	}
	o.Latency = *refSummarize(out.Latencies)
	o.Requests = o.Latency.Count
	o.PausedFrac = frac(o.PausedRequests, o.Requests)
	out.Verdicts = slo.Evaluate(&o.Latency)
	out.Passed = out.Violations() == 0
	return out
}

func refPhaseReport(name string, lats []float64, reads, writes, paused int, worst float64) PhaseReport {
	p := PhaseReport{
		Name:           name,
		Reads:          reads,
		Writes:         writes,
		PausedRequests: paused,
		WorstInflation: worst,
		Latency:        *refSummarize(lats),
	}
	p.Requests = p.Latency.Count
	refFinishPhase(&p)
	return p
}

func refFinishPhase(p *PhaseReport) {
	if p.Requests == 0 {
		p.Requests = p.Latency.Count
	}
	if p.WorstInflation == 0 {
		p.WorstInflation = 1
	}
	p.PausedFrac = frac(p.PausedRequests, p.Requests)
}

// sameReport holds got to want over every exported field, raw streams
// included (reflect.DeepEqual: a nil stream is not an empty one), and got's
// sorted phases — which the reference never had — to a sort of the raw
// ones.
func sameReport(t *testing.T, what string, got, want *Report) {
	t.Helper()
	if len(got.sorted) != len(want.PhaseLatencies) {
		t.Fatalf("%s: %d sorted phases for %d phases", what, len(got.sorted), len(want.PhaseLatencies))
	}
	for i, raw := range want.PhaseLatencies {
		s := append([]float64{}, raw...)
		sort.Float64s(s)
		if !reflect.DeepEqual(append([]float64{}, got.sorted[i]...), s) {
			t.Errorf("%s: phase %d is not kept as the sort of its stream", what, i)
		}
	}
	g := *got
	g.sorted = nil
	if !reflect.DeepEqual(&g, want) {
		t.Errorf("%s: report differs from the copy-and-sort reference:\n got %+v\nwant %+v", what, summary(&g), summary(want))
	}
}

// summary is a Report without its raw streams, for a readable failure.
func summary(r *Report) string {
	nils := ""
	for _, s := range r.PhaseLatencies {
		nils += fmt.Sprintf(" %d/nil=%v", len(s), s == nil)
	}
	return fmt.Sprintf("phases %+v overall %+v verdicts %+v passed %v checksum %x shards %d streams%s all %d/nil=%v",
		r.Phases, r.Overall, r.Verdicts, r.Passed, r.StoreChecksum, r.Shards, nils, len(r.Latencies), r.Latencies == nil)
}

// loopOf builds the Loop that has measured what l says, the way request
// and enterPhase would have left it.
func loopOf(l lane) *Loop {
	cfg := Config{Phases: l.phases}
	loop := &Loop{
		cfg:       cfg,
		total:     cfg.TotalRequests(),
		lats:      make([]float64, 0, cfg.TotalRequests()),
		starts:    make([]int, 0, len(l.phases)),
		reads:     l.reads,
		writes:    l.writes,
		paused:    l.paused,
		worstInfl: l.worstInfl,
		checksum:  l.checksum,
	}
	for _, s := range l.lats {
		if s == nil {
			break
		}
		loop.starts = append(loop.starts, len(loop.lats))
		loop.lats = append(loop.lats, s...)
	}
	loop.done = len(loop.lats)
	return loop
}

// synthLane draws a lane the shape of a real one: a few hundred distinct
// latencies (sums of multiples of 0.4 and 0.2, so inexact) over thousands
// of requests, and now and then a request with a pause inside it. served
// says how many requests each phase got: -1 for a phase never entered, 0
// for one entered as the loop was cut short.
func synthLane(seed int64, served []int) lane {
	r := newRNG(seed)
	l := lane{checksum: r.Uint64()}
	for i, n := range served {
		l.phases = append(l.phases, Phase{Name: fmt.Sprintf("p%d", i), Requests: 4000})
		var s []float64
		if n >= 0 {
			s = make([]float64, 0, l.phases[i].Requests)
		}
		reads, paused, worst := 0, 0, 0.0
		for j := 0; j < n; j++ {
			lat := 20.4*float64(1+r.Intn(12)) + 0.2*float64(r.Intn(14))
			if r.Intn(2) == 0 {
				reads++
			}
			if r.Intn(300) == 0 {
				pause := 1000.2 * float64(1+r.Intn(40))
				paused++
				worst = math.Max(worst, (lat+pause)/lat)
				lat += pause
			}
			s = append(s, lat)
		}
		l.lats = append(l.lats, s)
		l.reads = append(l.reads, reads)
		l.writes = append(l.writes, max(n, 0)-reads)
		l.paused = append(l.paused, paused)
		l.worstInfl = append(l.worstInfl, worst)
	}
	return l
}

var refSLO = SLO{Targets: []Target{{"p50", 100}, {"p99", 250}, {"p999", 5000}, {"max", 50000}}}

// TestReportsMatchCopyAndSortReference: Loop.Report, and MergeReports over
// one, two and four lanes, produce the Report the reference produces —
// every field, raw streams included — on complete lanes, a lane cut short
// mid-phase, a lane cut short on entering a phase (an empty stream) and
// one that never served a request.
func TestReportsMatchCopyAndSortReference(t *testing.T) {
	shapes := []struct {
		name   string
		served []int
	}{
		{"complete", []int{4000, 4000, 4000}},
		{"cut mid-phase", []int{4000, 1234, -1}},
		{"cut at phase gate", []int{4000, 4000, 0}},
		{"one request", []int{1, -1, -1}},
		{"never started", []int{-1, -1, -1}},
	}
	distinct := map[float64]bool{}
	var got, want []*Report
	var names []string
	for i, shape := range shapes {
		name := shape.name
		for seed := int64(1); seed <= 2; seed++ {
			l := synthLane(seed*7919+int64(i), shape.served)
			for _, s := range l.lats {
				for _, v := range s {
					distinct[v] = true
				}
			}
			g, w := loopOf(l).Report(refSLO), refReport(l, refSLO)
			sameReport(t, "Report, "+name, g, w)
			got, want, names = append(got, g), append(want, w), append(names, name)
		}
	}
	if len(distinct) < 50 || len(distinct) > 1000 {
		t.Errorf("%d distinct latencies: not the heavy duplication a real run has (96-181 in 72,000)", len(distinct))
	}
	for _, lanes := range []int{1, 2, 4} {
		for from := 0; from+lanes <= len(got); from++ {
			what := fmt.Sprintf("MergeReports %v", names[from:from+lanes])
			sameReport(t, what, MergeReports(got[from:from+lanes], refSLO), refMergeReports(want[from:from+lanes], refSLO))
		}
	}
	// Summarize is still the exported copy, sort and summarise.
	raw := append([]float64(nil), want[0].Latencies...)
	if g, w := Summarize(raw), refSummarize(raw); *g != *w {
		t.Errorf("Summarize = %+v, reference %+v", *g, *w)
	}
	if !reflect.DeepEqual(raw, want[0].Latencies) {
		t.Error("Summarize modified its input")
	}
	if g, w := Summarize(nil), refSummarize(nil); *g != *w {
		t.Errorf("Summarize(nil) = %+v, reference %+v", *g, *w)
	}
}

// TestRealLoopReportsMatchReference is the same comparison on loops that
// really served: one to completion, one out of memory part-way (a heap
// that holds the initial keys and not the grown set, so the growth phase
// is entered and serves nothing).
func TestRealLoopReportsMatchReference(t *testing.T) {
	sc := testConfig()
	var reports, refs []*Report
	for _, tc := range []struct {
		factor float64
		oom    bool
	}{{4, false}, {1.2, true}} {
		loop, err := serve(t, sc, tc.factor)
		if tc.oom != errors.Is(err, gc.ErrOutOfMemory) || (err != nil && !tc.oom) {
			t.Fatalf("heap factor %v: run ended %v, want out of memory = %v", tc.factor, err, tc.oom)
		}
		if tc.oom && (loop.Served() == 0 || loop.Done()) {
			t.Fatalf("heap factor %v: served %d of %d requests; want a loop cut short part-way", tc.factor, loop.Served(), sc.TotalRequests())
		}
		l := lane{phases: sc.Phases, lats: make([][]float64, len(sc.Phases)), reads: loop.reads, writes: loop.writes,
			paused: loop.paused, worstInfl: loop.worstInfl, checksum: loop.checksum}
		for i := range loop.starts {
			to := len(loop.lats)
			if i+1 < len(loop.starts) {
				to = loop.starts[i+1]
			}
			l.lats[i] = append(make([]float64, 0, sc.Phases[i].Requests), loop.lats[loop.starts[i]:to]...)
		}
		g, w := loop.Report(refSLO), refReport(l, refSLO)
		sameReport(t, fmt.Sprintf("Report at %vx", tc.factor), g, w)
		reports, refs = append(reports, g), append(refs, w)
	}
	sameReport(t, "MergeReports of a complete and a cut-short lane", MergeReports(reports, refSLO), refMergeReports(refs, refSLO))
}

// refZetaRange is the sum zetaRange computes on a miss, with no memory.
func refZetaRange(from, to int, theta float64) float64 {
	var s float64
	for i := from + 1; i <= to; i++ {
		s += 1 / math.Pow(float64(i), theta)
	}
	return s
}

// TestZetaMemoReturnsTheLoopsBits: every sum a newZipf and Grow sequence
// asks for comes back with the bits of the unmemoised loop — computed and
// remembered alike — and eight goroutines asking at once (engine workers
// building Loops) get the same; run under -race.
func TestZetaMemoReturnsTheLoopsBits(t *testing.T) {
	type ask struct {
		theta      float64
		keys, grow int
	}
	asks := []ask{{0.8, 1237, 619}, {0.99, 1237, 619}, {0.8, 3277, 1638}, {0.5, 257, 129}, {0.8, 1237, 2000}}
	check := func(report func(string, ...any), a ask) {
		z := newZipf(a.keys, a.theta)
		z.Grow(a.keys + a.grow)
		if want := refZetaRange(0, 2, a.theta); z.zeta2 != want {
			report("%+v: zeta2 = %v, the loop gives %v", a, z.zeta2, want)
		}
		if want := refZetaRange(0, a.keys, a.theta) + refZetaRange(a.keys, a.keys+a.grow, a.theta); z.zetan != want {
			report("%+v: zetan = %v, the loop gives %v", a, z.zetan, want)
		}
		for _, r := range [][2]int{{0, 2}, {0, a.keys}, {a.keys, a.keys + a.grow}} {
			if got, want := zetaRange(r[0], r[1], a.theta), refZetaRange(r[0], r[1], a.theta); got != want {
				report("zetaRange(%d, %d, %v) = %v, the loop gives %v", r[0], r[1], a.theta, got, want)
			}
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := range asks {
				check(t.Errorf, asks[(i+g)%len(asks)])
			}
		}(g)
	}
	wg.Wait()
	// Everything asked above is remembered now: these are all hits.
	zetaMemo.Lock()
	for _, a := range asks {
		for _, k := range []zetaKey{{0, 2, a.theta}, {0, a.keys, a.theta}, {a.keys, a.keys + a.grow, a.theta}} {
			if _, ok := zetaMemo.sums[k]; !ok {
				t.Errorf("zetaRange(%d, %d, %v) was computed and not remembered", k.from, k.to, k.theta)
			}
		}
	}
	zetaMemo.Unlock()
	for _, a := range asks {
		check(t.Errorf, a)
	}
}
