package main

import (
	"errors"
	"time"

	"beltway/internal/core"
	"beltway/internal/gc"
	"beltway/internal/harness"
	"beltway/internal/heap"
	"beltway/internal/policy"
	"beltway/internal/server"
	"beltway/internal/telemetry"
	"beltway/internal/vm"
	"beltway/internal/workload"
)

// The traced run records spans from this directory only, around the calls
// into each layer. Span tree:
//
//	round > job > { core.alloc > core.collect > {setup, trace, finish},
//	                core.write_ref, core.read_ref, server.phase.* }
//
// Round, job, collection and server-phase spans are kept one by one;
// per-call spans (alloc, write_ref, read_ref) are far too many for that
// and are aggregated per (job, name) as a count and a total.

// span is one kept span. Times are seconds since the tracer started.
type span struct {
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
	Parent int     `json:"parent"` // index into the span list, -1 for a root
	Job    string  `json:"job,omitempty"`
}

// callAgg aggregates the per-call spans of one name within one job.
type callAgg struct {
	Job     string `json:"job"`
	Name    string `json:"name"`
	Count   int64  `json:"count"`
	TotalNS int64  `json:"total_ns"` // self time: child spans taken out
}

type tracer struct {
	t0    time.Time
	spans []span
	calls []callAgg
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// timingCost measures what a span itself costs right now: an empty span
// reads biasNS, and taking it costs pairNS of the enclosing span. A
// per-call span is about as long as its own cost, and the cost moves with
// the host, so every traced job measures it afresh just before it starts.
func timingCost() (biasNS, pairNS float64) {
	// 0.2 ms in all, because it runs inside the traced job's window; the
	// median of twenty chunks, because one interrupt in that window would
	// otherwise be charged to every span of the job.
	const chunks, n = 20, 100
	var bias, pair [chunks]float64
	for c := range bias {
		var read time.Duration
		t0 := time.Now()
		for i := 0; i < n; i++ {
			s := time.Now()
			read += time.Since(s)
		}
		pair[c] = float64(time.Since(t0).Nanoseconds()) / n
		bias[c] = float64(read.Nanoseconds()) / n
	}
	return median(bias[:]), median(pair[:])
}

func (tr *tracer) since(t time.Time) float64 { return t.Sub(tr.t0).Seconds() }

func (tr *tracer) add(name, job string, parent int, start, end time.Time) int {
	tr.spans = append(tr.spans, span{Name: name, Job: job, Parent: parent,
		Start: tr.since(start), End: tr.since(end)})
	return len(tr.spans) - 1
}

// reset drops the kept spans: only the last traced round is written out.
func (tr *tracer) reset() { tr.spans, tr.calls = tr.spans[:0], tr.calls[:0] }

// jobTrace collects one traced job.
type jobTrace struct {
	tr    *tracer
	job   string
	span  int // the job's span
	start time.Time

	spanBiasNS, pairWallNS float64 // timingCost, just before the job

	alloc, writeRef, readRef struct{ count, ns int64 }

	collections                           int64
	collectNS, setupNS, traceNS, finishNS int64
	pre, begin, end                       time.Time

	phaseNS []int64 // server jobs: RunBatch time by script phase
}

func (tr *tracer) startJob(name string, round int) *jobTrace {
	jt := &jobTrace{tr: tr, job: name}
	jt.spanBiasNS, jt.pairWallNS = timingCost()
	jt.start = time.Now()
	jt.span = tr.add("job", name, round, jt.start, jt.start)
	return jt
}

func (jt *jobTrace) finish() {
	jt.tr.spans[jt.span].End = jt.tr.since(time.Now())
	for _, c := range []struct {
		name      string
		count, ns int64
	}{
		{"core.alloc", jt.alloc.count, jt.alloc.ns},
		{"core.write_ref", jt.writeRef.count, jt.writeRef.ns},
		{"core.read_ref", jt.readRef.count, jt.readRef.ns},
	} {
		jt.tr.calls = append(jt.tr.calls, callAgg{Job: jt.job, Name: c.name, Count: c.count, TotalNS: c.ns})
	}
}

// hooks times the phases of every collection off the collector's own
// callbacks: PreGC, GCBegin, GCEnd, PostGC, in that order.
func (jt *jobTrace) hooks() gc.Hooks {
	return gc.Hooks{
		PreGC:   func() { jt.pre = time.Now() },
		GCBegin: func(gc.GCBeginInfo) { jt.begin = time.Now() },
		GCEnd:   func(gc.GCEndInfo) { jt.end = time.Now() },
		PostGC: func() {
			post := time.Now()
			jt.collections++
			jt.collectNS += post.Sub(jt.pre).Nanoseconds()
			jt.setupNS += jt.begin.Sub(jt.pre).Nanoseconds()
			jt.traceNS += jt.end.Sub(jt.begin).Nanoseconds()
			jt.finishNS += post.Sub(jt.end).Nanoseconds()
			c := jt.tr.add("core.collect", jt.job, jt.span, jt.pre, post)
			jt.tr.add("core.collect.setup", jt.job, c, jt.pre, jt.begin)
			jt.tr.add("core.collect.trace", jt.job, c, jt.begin, jt.end)
			jt.tr.add("core.collect.finish", jt.job, c, jt.end, post)
		},
	}
}

// timedHeap is the collector the traced mutator sees: the real heap, with
// the calls that cross the mutator/collector boundary timed. A collection
// runs inside an allocation, so its time is taken out of the allocation's.
type timedHeap struct {
	*core.Heap
	jt *jobTrace
}

func (t *timedHeap) timeAlloc(f func() (heap.Addr, error)) (heap.Addr, error) {
	gc0 := t.jt.collectNS
	t0 := time.Now()
	a, err := f()
	t.jt.alloc.ns += time.Since(t0).Nanoseconds() - (t.jt.collectNS - gc0)
	t.jt.alloc.count++
	return a, err
}

func (t *timedHeap) Alloc(td *heap.TypeDesc, n int) (heap.Addr, error) {
	return t.timeAlloc(func() (heap.Addr, error) { return t.Heap.Alloc(td, n) })
}

func (t *timedHeap) AllocImmortal(td *heap.TypeDesc, n int) (heap.Addr, error) {
	return t.timeAlloc(func() (heap.Addr, error) { return t.Heap.AllocImmortal(td, n) })
}

func (t *timedHeap) AllocPretenured(td *heap.TypeDesc, n int) (heap.Addr, error) {
	return t.timeAlloc(func() (heap.Addr, error) { return t.Heap.AllocPretenured(td, n) })
}

func (t *timedHeap) WriteRef(obj heap.Addr, slot int, val heap.Addr) {
	t0 := time.Now()
	t.Heap.WriteRef(obj, slot, val)
	t.jt.writeRef.ns += time.Since(t0).Nanoseconds()
	t.jt.writeRef.count++
}

func (t *timedHeap) ReadRef(obj heap.Addr, slot int) heap.Addr {
	t0 := time.Now()
	a := t.Heap.ReadRef(obj, slot)
	t.jt.readRef.ns += time.Since(t0).Nanoseconds()
	t.jt.readRef.count++
	return a
}

// observers fans a request stream out, as the harness does for telemetry
// plus the adaptive controller.
type observers []server.Observer

func (os observers) Request(kind, phase, key int, start, latency, pauseCost float64) {
	for _, o := range os {
		o.Request(kind, phase, key, start, latency, pauseCost)
	}
}

// direct runs the job against the layers themselves — core.New, hooks, a
// mutator over the collector, the benchmark body or the server loop —
// instead of through harness.RunOne/RunServer, and assembles the Result
// the harness would have: the round-to-round digest check holds the two
// paths to the same bytes. With jt nil nothing is timed (the baseline the
// harness's own overhead is measured against). Sharded jobs have no
// single heap to wrap and go through the harness.
func (j *job) direct(jt *jobTrace) (*harness.Result, error) {
	if j.env.Mutators > 1 {
		return j.run()
	}
	cfg, err := j.config()
	if err != nil {
		return nil, err
	}
	var ctrl *policy.Controller
	if j.env.Policy != "" {
		pc, err := policy.Parse(j.env.Policy)
		if err != nil {
			return nil, err
		}
		ctrl = policy.New(pc)
		cfg.Policy = ctrl
	}
	types := heap.NewRegistry()
	h, err := core.New(cfg, types)
	if err != nil {
		return nil, err
	}
	tele := telemetry.NewRun(h.Clock())
	hooks := tele.Hooks()
	var c gc.Collector = h
	if jt != nil {
		hooks = hooks.Merge(jt.hooks())
		c = &timedHeap{Heap: h, jt: jt}
	}
	h.SetHooks(hooks)
	if ctrl != nil {
		ctrl.SetEmitter(tele.PolicyObserver())
	}

	res := &harness.Result{Collector: cfg.Name, HeapBytes: cfg.HeapBytes}
	var runErr error
	if j.bench != nil {
		res.Benchmark = j.bench.Name
		runErr = j.bench.Run(c, workload.Params{Scale: j.env.Scale, Seed: j.env.Seed, Pretenure: j.env.Pretenure})
	} else {
		res.Benchmark = "server"
		var obs server.Observer = tele.ServerObserver()
		if ctrl != nil {
			obs = observers{tele.ServerObserver(), ctrl}
		}
		loop, err := server.NewLoop(j.server, server.LoopOpts{Observer: obs})
		if err != nil {
			return nil, err
		}
		m := vm.New(c)
		runErr = m.Run(func() {
			loop.Start(m, types)
			serveTimed(loop, j.server.Phases, jt)
		})
		res.Server = loop.Report(j.slo)
	}
	clock := h.Clock()
	res.TotalTime, res.GCTime, res.MaxPause = clock.TotalTime(), clock.GCTime(), clock.MaxPause()
	res.Pauses, res.Counters, res.Collections = clock.Pauses(), clock.Counters, h.Collections()
	if ctrl != nil {
		res.Policy = ctrl.Summary()
	}
	if runErr != nil {
		if !errors.Is(runErr, gc.ErrOutOfMemory) {
			return nil, runErr
		}
		res.OOM = true
	}
	return res, nil
}

// serveTimed drains the loop batch by batch, timing each batch under the
// script phase it started in.
func serveTimed(loop *server.Loop, phases []server.Phase, jt *jobTrace) {
	if jt == nil {
		for !loop.Done() {
			loop.RunBatch()
		}
		return
	}
	jt.phaseNS = make([]int64, len(phases))
	phase, boundary := 0, phases[0].Requests
	phaseStart := time.Now()
	for !loop.Done() {
		for phase+1 < len(phases) && loop.Served() >= boundary {
			now := time.Now()
			jt.tr.add("server.phase."+phases[phase].Name, jt.job, jt.span, phaseStart, now)
			phaseStart = now
			phase++
			boundary += phases[phase].Requests
		}
		t0 := time.Now()
		loop.RunBatch()
		jt.phaseNS[phase] += time.Since(t0).Nanoseconds()
	}
	jt.tr.add("server.phase."+phases[phase].Name, jt.job, jt.span, phaseStart, time.Now())
}
