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
// report.go is held to, bit for bit — except that the raw streams, which
// a Report then carried, ride beside it in a refRun.

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

// refRun is a reference Report with the raw streams it was built from:
// per phase, and all of them in phase order.
type refRun struct {
	rep            *Report
	phaseLatencies [][]float64
	latencies      []float64
}

func refReport(l lane, slo SLO) refRun {
	done := 0
	for _, s := range l.lats {
		done += len(s)
	}
	rep := &Report{
		Shards:        1,
		StoreChecksum: l.checksum,
		SLO:           slo,
	}
	run := refRun{rep: rep, phaseLatencies: make([][]float64, len(l.phases)), latencies: make([]float64, 0, done)}
	for i, p := range l.phases {
		run.phaseLatencies[i] = l.lats[i]
		run.latencies = append(run.latencies, l.lats[i]...)
		rep.Phases = append(rep.Phases, refPhaseReport(p.Name, l.lats[i],
			l.reads[i], l.writes[i], l.paused[i], l.worstInfl[i]))
	}
	o := &rep.Overall
	*o = refPhaseReport("overall", run.latencies, 0, 0, 0, 0)
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
	return run
}

func refMergeReports(runs []refRun, slo SLO) refRun {
	reports := make([]*Report, len(runs))
	for i, r := range runs {
		reports[i] = r.rep
	}
	if len(reports) == 1 {
		r := *reports[0]
		r.SLO = slo
		r.Verdicts = slo.Evaluate(&r.Overall.Latency)
		r.Passed = r.Violations() == 0
		return refRun{&r, runs[0].phaseLatencies, runs[0].latencies}
	}
	nPhases := len(reports[0].Phases)
	out := &Report{
		Shards: 0,
		SLO:    slo,
	}
	merged := refRun{rep: out, phaseLatencies: make([][]float64, nPhases)}
	out.StoreChecksum = reports[0].StoreChecksum
	for i, r := range reports {
		out.Shards += r.Shards
		if i > 0 {
			out.StoreChecksum = out.StoreChecksum*1099511628211 ^ r.StoreChecksum
		}
	}
	total := 0
	for _, r := range runs {
		total += len(r.latencies)
	}
	merged.latencies = make([]float64, 0, total)
	for p := 0; p < nPhases; p++ {
		mp := PhaseReport{Name: reports[0].Phases[p].Name}
		n := 0
		for _, r := range runs {
			n += len(r.phaseLatencies[p])
		}
		merged.phaseLatencies[p] = make([]float64, 0, n)
		for i, r := range reports {
			merged.phaseLatencies[p] = append(merged.phaseLatencies[p], runs[i].phaseLatencies[p]...)
			mp.Reads += r.Phases[p].Reads
			mp.Writes += r.Phases[p].Writes
			mp.PausedRequests += r.Phases[p].PausedRequests
			if r.Phases[p].WorstInflation > mp.WorstInflation {
				mp.WorstInflation = r.Phases[p].WorstInflation
			}
		}
		mp.Latency = *refSummarize(merged.phaseLatencies[p])
		mp.Requests = mp.Latency.Count
		mp.PausedFrac = frac(mp.PausedRequests, mp.Requests)
		out.Phases = append(out.Phases, mp)
		merged.latencies = append(merged.latencies, merged.phaseLatencies[p]...)
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
	o.Latency = *refSummarize(merged.latencies)
	o.Requests = o.Latency.Count
	o.PausedFrac = frac(o.PausedRequests, o.Requests)
	out.Verdicts = slo.Evaluate(&o.Latency)
	out.Passed = out.Violations() == 0
	return merged
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

// sameReport holds got to want's report over every field
// (reflect.DeepEqual), and each of the loops got was read from to have
// its phases, in place in its buffer, as the sort of what it served.
func sameReport(t *testing.T, what string, got *Report, want refRun, loops []*Loop, served []lane) {
	t.Helper()
	for i, l := range loops {
		for p, raw := range served[i].lats {
			s := append([]float64{}, raw...)
			sort.Float64s(s)
			if !reflect.DeepEqual(append([]float64{}, l.phaseLats(p)...), s) {
				t.Errorf("%s: lane %d phase %d is not left as the sort of its stream", what, i, p)
			}
		}
	}
	if !reflect.DeepEqual(got, want.rep) {
		t.Errorf("%s: report differs from the copy-and-sort reference:\n got %+v\nwant %+v", what, summary(got), summary(want.rep))
	}
}

// summary is a Report for a readable failure.
func summary(r *Report) string {
	return fmt.Sprintf("phases %+v overall %+v verdicts %+v passed %v checksum %x shards %d",
		r.Phases, r.Overall, r.Verdicts, r.Passed, r.StoreChecksum, r.Shards)
}

// loopOf builds the Loop that has measured what l says, the way request
// and enterPhase would have left it, on a released latency buffer when
// there is one.
func loopOf(l lane) *Loop {
	cfg := Config{Phases: l.phases}
	loop := &Loop{
		cfg:       cfg,
		total:     cfg.TotalRequests(),
		lats:      takeBuf(&latBufs, cfg.TotalRequests()),
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

// TestReportsMatchCopyAndSortReference: Loop.Report, and ReportLoops
// over one, two and four lanes, produce the Report the reference
// produces — every field — on complete lanes, a lane cut short
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
	var lanes []lane
	var loops []*Loop
	var want []refRun
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
			loop := loopOf(l)
			g, w := loop.Report(refSLO), refReport(l, refSLO)
			sameReport(t, "Report, "+name, g, w, []*Loop{loop}, []lane{l})
			lanes, loops, want, names = append(lanes, l), append(loops, loop), append(want, w), append(names, name)
		}
	}
	if len(distinct) < 50 || len(distinct) > 1000 {
		t.Errorf("%d distinct latencies: not the heavy duplication a real run has (96-181 in 72,000)", len(distinct))
	}
	for _, n := range []int{1, 2, 4} {
		for from := 0; from+n <= len(loops); from++ {
			what := fmt.Sprintf("ReportLoops %v", names[from:from+n])
			sameReport(t, what, ReportLoops(loops[from:from+n], refSLO), refMergeReports(want[from:from+n], refSLO),
				loops[from:from+n], lanes[from:from+n])
		}
	}
	// Summarize is still the exported copy, sort and summarise.
	raw := append([]float64(nil), want[0].latencies...)
	if g, w := Summarize(raw), refSummarize(raw); *g != *w {
		t.Errorf("Summarize = %+v, reference %+v", *g, *w)
	}
	if !reflect.DeepEqual(raw, want[0].latencies) {
		t.Error("Summarize modified its input")
	}
	if g, w := Summarize(nil), refSummarize(nil); *g != *w {
		t.Errorf("Summarize(nil) = %+v, reference %+v", *g, *w)
	}
}

// TestRealLoopReportsMatchReference is the same comparison on loops that
// really served, the reference fed the streams their Observer recorded:
// one to completion, one out of memory part-way (a heap that holds the
// initial keys and not the grown set, so the growth phase is entered and
// serves nothing).
func TestRealLoopReportsMatchReference(t *testing.T) {
	sc := testConfig()
	var loops []*Loop
	var lanes []lane
	var refs []refRun
	for _, tc := range []struct {
		factor float64
		oom    bool
	}{{4, false}, {1.2, true}} {
		var raw streams
		loop, err := serve(t, sc, tc.factor, &raw)
		if tc.oom != errors.Is(err, gc.ErrOutOfMemory) || (err != nil && !tc.oom) {
			t.Fatalf("heap factor %v: run ended %v, want out of memory = %v", tc.factor, err, tc.oom)
		}
		if tc.oom && (loop.Served() == 0 || loop.Done()) {
			t.Fatalf("heap factor %v: served %d of %d requests; want a loop cut short part-way", tc.factor, loop.Served(), sc.TotalRequests())
		}
		l := lane{phases: sc.Phases, lats: make([][]float64, len(sc.Phases)), reads: loop.reads, writes: loop.writes,
			paused: loop.paused, worstInfl: loop.worstInfl, checksum: loop.checksum}
		copy(l.lats, raw)
		g, w := loop.Report(refSLO), refReport(l, refSLO)
		sameReport(t, fmt.Sprintf("Report at %vx", tc.factor), g, w, []*Loop{loop}, []lane{l})
		loops, lanes, refs = append(loops, loop), append(lanes, l), append(refs, w)
	}
	sameReport(t, "ReportLoops of a complete and a cut-short lane", ReportLoops(loops, refSLO), refMergeReports(refs, refSLO), loops, lanes)
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
