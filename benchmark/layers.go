package main

import (
	"fmt"
	"os"
	"strings"
	"time"

	"beltway/internal/farm"
	"beltway/internal/harness"
)

const minSets = 2

// layerSamples collects the per-layer readings of a traced run: repeated
// ones by metric name, exact ones once.
type layerSamples struct {
	sampled map[string][]float64
	exact   map[string]float64
}

func (l *layerSamples) add(name string, v float64) { l.sampled[name] = append(l.sampled[name], v) }

// values renders every per-layer metric in table order. One that does not
// apply to the workload has n = 0 and reads 0: the driver's contract wants
// every per-layer metric on every workload; the printed table leaves it out.
func (l *layerSamples) values() []metricValue {
	out := make([]metricValue, 0, len(perLayer))
	for i := range perLayer {
		d := &perLayer[i]
		switch vs, ok := l.sampled[d.name]; {
		case ok:
			out = append(out, sampled(d, vs))
		default:
			v, ok := l.exact[d.name]
			mv := single(d, v)
			if !ok {
				mv.N = 0
			}
			out = append(out, mv)
		}
	}
	return out
}

func isMarkRegion(spec string) bool { return spec == "immix" || strings.HasSuffix(spec, "-mr") }

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// runTraced takes the per-layer metrics of one workload. It alternates
// untraced and traced variants of the round until the time budget is
// spent, then runs the layer probes.
func runTraced(def *workloadDef, seed int64, seconds float64, tmpRoot string) (*report, error) {
	rep := &report{Workload: def.name, Seed: seed, Traced: true, Host: readHost(), Op: def.op}
	p, m, warm, _, _, err := setUp(def, seed, tmpRoot)
	if err != nil {
		return nil, err
	}
	ls := &layerSamples{sampled: map[string][]float64{}, exact: map[string]float64{}}
	tr := newTracer()
	var chk checker
	chk.round("warm-up", warm)

	start := time.Now()
	for set := 1; set <= minSets || time.Since(start).Seconds() < seconds; set++ {
		tr.reset()
		label := fmt.Sprintf("set %d", set)
		if p.grid != nil {
			p.grid.tracedSet(m, tr, &chk, ls, label)
		} else {
			p.tracedSet(m, tr, &chk, ls, label)
		}
		rep.Rounds = set
	}
	rep.JobsARound = max(len(p.jobs), gridStages)
	if p.minHeapProbes > 0 {
		ls.exact["harness.min_heap_probes"] = float64(p.minHeapProbes)
		ls.exact["harness.find_min_heap.cal"] = p.minHeapWall.Seconds() / (p.minHeapKernel.Seconds() / float64(p.minHeapProbes))
	}

	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	probes, err := layerProbes(tmpRoot, exe)
	if err != nil {
		return nil, err
	}
	cals, err := runProbes(m, probes)
	if err != nil {
		return nil, err
	}
	for name, vs := range cals {
		if strings.HasSuffix(name, ".cal") {
			ls.sampled[name] = vs
		}
	}
	ls.exact["trace.record.overhead_frac"] = median(cals["trace.record_on"])/median(cals["trace.record_off"]) - 1

	rep.PerLayer = ls.values()
	rep.Spans, rep.Calls = tr.spans, tr.calls
	rep.CalibDrift = m.calibDrift()
	rep.Attempted, rep.Failed, rep.Failures = chk.attempted, chk.failed, chk.failures
	return rep, nil
}

// tracedSet runs the job list four ways — through the harness (A),
// directly against the layers (B), directly with spans (C), and through
// the harness with Env.Telemetry (D, benchmark jobs only) — and reads one
// sample of every span-derived metric off them.
func (p *plan) tracedSet(m *meter, tr *tracer, chk *checker, ls *layerSamples, label string) {
	a := p.round(m, (*job).run)
	chk.round(label+" harness", a)
	b := p.round(m, func(j *job) (*harness.Result, error) { return j.direct(nil) })
	chk.round(label+" direct", b)

	roundStart := time.Now()
	roundSpan := tr.add("round", "", -1, roundStart, roundStart)
	var traces []*jobTrace
	c := p.round(m, func(j *job) (*harness.Result, error) {
		jt := tr.startJob(j.name, roundSpan)
		defer jt.finish()
		traces = append(traces, jt)
		return j.direct(jt)
	})
	tr.spans[roundSpan].End = tr.since(time.Now())
	chk.round(label+" traced", c)

	calA, calB, calC := summarize(a).timeCal(), summarize(b).timeCal(), summarize(c).timeCal()
	ls.add("tracing.overhead_frac", calC/calA-1)
	ls.add("harness.run_one.overhead_frac", calA/calB-1)
	if p.jobs[0].bench != nil {
		d := p.round(m, func(j *job) (*harness.Result, error) {
			withTelemetry := *j
			withTelemetry.env.Telemetry = true
			return withTelemetry.run()
		})
		chk.round(label+" telemetry", d)
		ls.add("telemetry.overhead_frac", summarize(d).timeCal()/calA-1)
	}

	p.spanShares(tr, traces, ls)
	p.exactLayers(a, traces, ls)
	if p.jobs[0].bench == nil {
		cal, wall := map[string]float64{}, map[string]float64{}
		for i := range a {
			cal[a[i].name] = a[i].inKernelRuns()
			wall[a[i].name] = a[i].wall.Seconds()
		}
		ls.add("policy.overhead_frac", cal["server/fixed:25+slo"]/cal["server/fixed:25"]-1)
		// The two jobs' kernels differ in width, so this one is wall to
		// wall; they ran a second apart.
		ls.add("shard.m2_speedup", 2*wall["server/25.25"]/wall["server/25.25+m2"])
	}
}

// spanShares turns one traced round's spans into shares of traced job
// time. Every span reads spanBiasNS too long and costs its parent
// pairWallNS, so both are taken out before dividing.
func (p *plan) spanShares(tr *tracer, traces []*jobTrace, ls *layerSamples) {
	var job, alloc, write, read, collect, setup, trace, finish float64
	var mrJob, mrCollect, rawJob float64
	phases := map[string]float64{}
	for i, jt := range traces {
		if p.jobs[i].env.Mutators > 1 {
			continue // went through the harness: a job span and nothing inside it
		}
		sp := tr.spans[jt.span]
		calls := float64(jt.alloc.count + jt.writeRef.count + jt.readRef.count)
		// A collection is four hook timestamps: a pair and a half inside
		// the job, and one span bias on its total.
		j := (sp.End-sp.Start)*1e9 - calls*jt.pairWallNS - float64(jt.collections)*2*jt.pairWallNS
		c := float64(jt.collectNS) - float64(jt.collections)*jt.spanBiasNS
		job += j
		alloc += float64(jt.alloc.ns) - float64(jt.alloc.count)*jt.spanBiasNS
		write += float64(jt.writeRef.ns) - float64(jt.writeRef.count)*jt.spanBiasNS
		read += float64(jt.readRef.ns) - float64(jt.readRef.count)*jt.spanBiasNS
		collect += c
		setup += float64(jt.setupNS)
		trace += float64(jt.traceNS)
		finish += float64(jt.finishNS)
		if isMarkRegion(p.jobs[i].spec) {
			mrJob += j
			mrCollect += c
		}
		for k, ns := range jt.phaseNS {
			phases[p.jobs[i].server.Phases[k].Name] += float64(ns)
		}
		rawJob += (sp.End - sp.Start) * 1e9
	}
	ls.add("core.alloc.share", alloc/job)
	ls.add("core.write_ref.share", write/job)
	ls.add("core.read_ref.share", read/job)
	ls.add("core.collect.share", collect/job)
	ls.add("core.collect.setup.share", setup/job)
	ls.add("core.collect.trace.share", trace/job)
	ls.add("core.collect.finish.share", finish/job)
	ls.add("mutator.self.share", 1-(alloc+write+read+collect)/job)
	if mrJob > 0 {
		ls.add("markregion.collect.share", mrCollect/mrJob)
	}
	// A phase's batches carry the cost of the spans taken inside them, and
	// how many those were is not known by phase: raw over raw.
	for name, ns := range phases {
		ls.add("server.phase."+name+".share", ns/rawJob)
	}
}

// exactLayers reads the counters and reports of one round: the same on
// every round, so later sets overwrite with equal values.
func (p *plan) exactLayers(outs []outcome, traces []*jobTrace, ls *layerSamples) {
	var (
		collections, full, copied, allocated, stores, slow float64
		roots, inserts, entries, frames, mrMarked, mrAlloc float64
		reads, writes, paused, requests, passed            float64
		p999, worst                                        []float64
	)
	for i := range outs {
		res := outs[i].res
		if res == nil {
			continue
		}
		c := res.Counters
		collections += float64(c.Collections)
		full += float64(c.FullCollections)
		copied += float64(c.BytesCopied)
		allocated += float64(c.BytesAllocated)
		stores += float64(c.PointerStores)
		slow += float64(c.BarrierSlowPaths)
		roots += float64(c.RootsScanned)
		inserts += float64(c.RemsetInserts)
		entries += float64(c.RemsetEntriesGC)
		frames += float64(c.FramesMapped)
		if isMarkRegion(p.jobs[i].spec) {
			mrMarked += float64(c.MRBytesMarked)
			mrAlloc += float64(c.BytesAllocated)
		}
		if s := res.Server; s != nil {
			reads += float64(s.Overall.Reads)
			writes += float64(s.Overall.Writes)
			paused += float64(s.Overall.PausedRequests)
			requests += float64(s.Overall.Requests)
			p999 = append(p999, s.Overall.Latency.P999)
			worst = append(worst, s.Overall.Latency.Max)
			if s.Passed {
				passed++
			}
		}
		if res.Policy != nil {
			ls.exact["policy.decisions"] = float64(res.Policy.Decisions)
		}
		if res.Mutators > 1 {
			ls.exact["shard.makespan_cost"] = res.TotalTime
		}
	}
	var allocCalls, writeCalls float64
	for _, jt := range traces {
		allocCalls += float64(jt.alloc.count)
		writeCalls += float64(jt.writeRef.count)
	}
	ls.exact["core.alloc.calls"] = allocCalls
	ls.exact["core.write_ref.calls"] = writeCalls
	ls.exact["core.collect.count"] = collections
	ls.exact["core.collect.full_count"] = full
	ls.exact["core.collect.copied_bytes_per_alloc_kb"] = ratio(copied, allocated/1024)
	ls.exact["core.barrier.slow_per_kstore"] = ratio(slow, stores/1000)
	ls.exact["gc.roots.scanned_per_collection"] = ratio(roots, collections)
	ls.exact["remset.inserts_per_kstore"] = ratio(inserts, stores/1000)
	ls.exact["remset.entries_per_collection"] = ratio(entries, collections)
	ls.exact["heap.frames_mapped_per_alloc_mb"] = ratio(frames, allocated/(1<<20))
	if mrAlloc > 0 {
		ls.exact["markregion.marked_bytes_per_alloc_kb"] = mrMarked / (mrAlloc / 1024)
	}
	if requests > 0 {
		ls.exact["server.reads"] = reads
		ls.exact["server.writes"] = writes
		ls.exact["server.paused_frac"] = paused / requests
		ls.exact["server.latency_p999_cost"] = geomean(p999)
		ls.exact["server.latency_max_cost"] = geomean(worst)
		ls.exact["server.slo_pass_frac"] = passed / float64(len(p999))
	}
}

// tracedSet for the grid: an untraced round, a traced one (a span per
// stage, the engine's own record durations read back), then the farm's
// specs once more in process, which is what the runs cost without the
// farm around them.
func (g *gridPlan) tracedSet(m *meter, tr *tracer, chk *checker, ls *layerSamples, label string) {
	a := g.round(m, nil)
	chk.round(label+" untraced", a)

	var gt gridTrace
	roundStart := time.Now()
	c := g.round(m, &gt)
	roundSpan := tr.add("round", "", -1, roundStart, time.Now())
	chk.round(label+" traced", c)
	walls := map[string]float64{}
	var total float64
	for i := range c {
		tr.add(c[i].name, c[i].name, roundSpan, c[i].start, c[i].start.Add(c[i].wall))
		walls[c[i].name] = c[i].wall.Seconds()
		total += c[i].wall.Seconds()
	}
	ls.add("tracing.overhead_frac", summarize(c).timeCal()/summarize(a).timeCal()-1)

	inProcess := m.measure("farm.specs in process", gridWorkers, func() error {
		for _, spec := range gt.specs {
			if _, _, err := farm.ExecuteSpec(spec); err != nil {
				return err
			}
		}
		return nil
	})
	chk.round(label+" in process", []outcome{inProcess})

	capacity := gridWorkers * walls["farm.run"]
	ls.add("experiments.fig9.share", walls["experiments.fig9"]/total)
	ls.add("farm.run.share", walls["farm.run"]/total)
	ls.add("farm.verify.share", walls["farm.verify"]/total)
	ls.add("farm.report.share", walls["farm.report"]/total)
	ls.add("engine.exec_share", gt.suiteExecMS/1000/(gridWorkers*walls["experiments.fig9"]))
	ls.add("farm.exec_share", gt.farmExecMS/1000/capacity)
	ls.add("farm.minheap_share", gt.minHeapExecMS/1000/capacity)
	ls.add("farm.pure_run_share", inProcess.wall.Seconds()/capacity)
	var farmRun *outcome
	for i := range c {
		if c[i].name == "farm.run" {
			farmRun = &c[i]
		}
	}
	// The two sides ran a moment apart: compare them kernel to kernel, both
	// in the kernel farm.Run was measured in.
	ls.add("farm.ipc_overhead_frac",
		(gt.farmExecMS/1000/farmRun.wall.Seconds()*farmRun.inKernelRuns())/inProcess.inKernelRuns()-1)
	ls.add("farm.worker_peak_rss_mb", gt.workerRSSMB)
	ls.exact["farm.worker_spawns"] = float64(gt.spawns)
}
