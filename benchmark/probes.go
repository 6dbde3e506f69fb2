package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"time"

	"beltway/internal/collectors"
	"beltway/internal/core"
	"beltway/internal/engine"
	"beltway/internal/farm"
	"beltway/internal/harness"
	"beltway/internal/heap"
	"beltway/internal/markregion"
	"beltway/internal/remset"
	"beltway/internal/stats"
	"beltway/internal/telemetry"
	"beltway/internal/trace"
	"beltway/internal/vm"
	"beltway/internal/workload"
)

// A probe runs a fixed number of calls into one layer's public functions
// and returns the wall time of just those calls. Its metric is that time
// over the adjacent calibration-kernel time (".cal"): a per-layer speed
// that needs no workload and no span, for layers a span cannot isolate.
// Iteration counts put each probe at 5-30 ms.
type probe struct {
	metric string
	run    func() (time.Duration, error)
}

const probeRepeats = 3

// runProbes measures every probe probeRepeats times and returns the .cal
// samples by metric name.
func runProbes(m *meter, probes []probe) (map[string][]float64, error) {
	out := map[string][]float64{}
	for rep := 0; rep < probeRepeats; rep++ {
		for _, p := range probes {
			calib := m.calibrate(1)
			d, err := p.run()
			if err != nil {
				return nil, fmt.Errorf("probe %s: %w", p.metric, err)
			}
			out[p.metric] = append(out[p.metric], d.Seconds()/calib.Seconds())
		}
	}
	return out, nil
}

func timed(f func()) time.Duration {
	t0 := time.Now()
	f()
	return time.Since(t0)
}

// probeHeap is the small fixed heap the trace probes run on.
func probeHeap() (*core.Heap, *heap.Registry, error) {
	types := heap.NewRegistry()
	h, err := core.New(collectors.XX100(25, collectors.Options{HeapBytes: 1 << 20, FrameBytes: 8192}), types)
	return h, types, err
}

// recordJess runs the jess body on the probe heap, with or without a
// trace recorder attached, and returns the wall time of the body.
func recordJess(tr *trace.Trace) (time.Duration, error) {
	h, types, err := probeHeap()
	if err != nil {
		return 0, err
	}
	m := vm.New(h)
	if tr != nil {
		m.SetRecorder(tr)
	}
	ctx := &workload.Ctx{M: m, Types: types, Rng: rand.New(rand.NewSource(defaultSeed)), Scale: benchScale}
	var runErr error
	d := timed(func() { runErr = m.Run(func() { workload.Jess().Body(ctx) }) })
	return d, runErr
}

// layerProbes builds the probes. tmp receives the files of the engine and
// farm probes; exe is this binary, re-executed as the echo worker.
func layerProbes(tmp, exe string) ([]probe, error) {
	jessTrace := trace.NewTrace()
	if _, err := recordJess(jessTrace); err != nil {
		return nil, err
	}
	env := harness.EnvForScale(benchScale)
	sample, err := harness.RunOne(appelAt(env)(1<<20), workload.Jess(), env)
	if err != nil {
		return nil, err
	}
	seq := 0
	fresh := func(name string) string { // a file name no earlier repeat used
		seq++
		return filepath.Join(tmp, fmt.Sprintf("%s-%d", name, seq))
	}

	return []probe{
		{"remset.insert_distinct.cal", func() (time.Duration, error) {
			t := remset.NewTable()
			return timed(func() {
				for i := 0; i < 200_000; i++ {
					t.Insert(heap.Frame(i%64), heap.Frame((i+1)%64), heap.Addr(i*4))
				}
			}), nil
		}},
		{"remset.insert_duplicate.cal", func() (time.Duration, error) {
			t := remset.NewTable()
			t.Insert(1, 2, 0x1000)
			return timed(func() {
				for i := 0; i < 1_000_000; i++ {
					t.Insert(1, 2, 0x1000)
				}
			}), nil
		}},
		{"remset.collect_roots.cal", func() (time.Duration, error) {
			tables := make([]*remset.Table, 200)
			for k := range tables {
				tables[k] = remset.NewTable()
				for i := 0; i < 4096; i++ {
					tables[k].Insert(heap.Frame(i%8+8), heap.Frame(i%8), heap.Addr(i*16))
				}
			}
			condemned := func(f heap.Frame) bool { return f < 8 }
			roots := 0
			d := timed(func() {
				for _, t := range tables {
					roots += len(t.CollectRoots(condemned))
				}
			})
			if roots != 200*4096 {
				return 0, fmt.Errorf("collected %d roots", roots)
			}
			return d, nil
		}},
		{"heap.copy_object.cal", func() (time.Duration, error) {
			r := heap.NewRegistry()
			node := r.DefineScalar("n", 4, 9) // (3+4+9)*4 = 64 bytes
			s := heap.NewSpace(1<<16, r)
			base := s.FrameBase(s.MapFrame())
			s.Format(base, node, 0, 1)
			return timed(func() {
				for i := 0; i < 500_000; i++ {
					s.CopyObject(base, base+4096)
				}
			}), nil
		}},
		{"heap.walk_objects.cal", func() (time.Duration, error) {
			r := heap.NewRegistry()
			node := r.DefineScalar("n", 2, 2)
			s := heap.NewSpace(1<<16, r)
			base := s.FrameBase(s.MapFrame())
			limit := base
			for i := 0; i < 100; i++ {
				s.Format(limit, node, 0, uint32(i+1))
				limit += heap.Addr(node.Size(0))
			}
			n := 0
			d := timed(func() {
				for i := 0; i < 20_000; i++ {
					s.WalkObjects(base, limit, func(heap.Addr) bool { n++; return true })
				}
			})
			if n != 20_000*100 {
				return 0, fmt.Errorf("walked %d objects", n)
			}
			return d, nil
		}},
		{"heap.map_unmap.cal", func() (time.Duration, error) {
			s := heap.NewSpace(1<<14, heap.NewRegistry())
			return timed(func() {
				for i := 0; i < 300_000; i++ {
					s.UnmapFrame(s.MapFrame())
				}
			}), nil
		}},
		{"markregion.line_mark.cal", func() (time.Duration, error) { return markSweep(true) }},
		{"markregion.sweep.cal", func() (time.Duration, error) { return markSweep(false) }},
		{"stats.clock_advance.cal", func() (time.Duration, error) {
			c := stats.NewClock(stats.DefaultCosts())
			return timed(func() {
				for i := 0; i < 3_000_000; i++ {
					c.Advance(1)
				}
			}), nil
		}},
		{"mmu.curve.cal", func() (time.Duration, error) {
			res := &harness.Result{TotalTime: 4e6 * 1000}
			for i := 0; i < 2000; i++ {
				start := float64(i) * 4e6
				res.Pauses = append(res.Pauses, stats.Pause{Start: start, End: start + 1e5 + float64(i%7)*3e4})
				res.GCTime += res.Pauses[i].Duration()
				res.MaxPause = max(res.MaxPause, res.Pauses[i].Duration())
			}
			return timed(func() { res.MMU(24) }), nil
		}},
		{"telemetry.emit_event.cal", func() (time.Duration, error) {
			rec := telemetry.NewFlightRecorder(0)
			e := telemetry.Event{Kind: telemetry.EvGCEnd, Time: 1e6, Dur: 1e3, GC: 1, A: 4096, B: 32, C: 7, D: 2}
			return timed(func() {
				for i := 0; i < 2_000_000; i++ {
					rec.Emit(e)
				}
			}), nil
		}},
		{"trace.record_off", func() (time.Duration, error) { return recordJess(nil) }},
		{"trace.record_on", func() (time.Duration, error) { return recordJess(trace.NewTrace()) }},
		{"trace.replay.cal", func() (time.Duration, error) {
			h, _, err := probeHeap()
			if err != nil {
				return 0, err
			}
			d := timed(func() { err = trace.Replay(jessTrace, vm.New(h)) })
			return d, err
		}},
		{"trace.serialize.cal", func() (time.Duration, error) {
			var err error
			d := timed(func() {
				for i := 0; i < 5 && err == nil; i++ {
					var buf bytes.Buffer
					if _, err = jessTrace.WriteTo(&buf); err == nil {
						_, err = trace.ReadFrom(&buf)
					}
				}
			})
			return d, err
		}},
		{"harness.marshal_payload.cal", func() (time.Duration, error) {
			var err error
			d := timed(func() {
				for i := 0; i < 2000 && err == nil; i++ {
					_, err = harness.MarshalRunPayload(sample)
				}
			})
			return d, err
		}},
		{"engine.noop_job.cal", func() (time.Duration, error) {
			jobs := make([]engine.Job, 300)
			for i := range jobs {
				jobs[i] = engine.Job{Key: engine.Key{Experiment: "noop", HeapBytes: i + 1},
					Run: func() (any, engine.Outcome, error) { return struct{}{}, engine.OK, nil }}
			}
			var err error
			d := timed(func() {
				eng := engine.New(engine.Config{Workers: gridWorkers, Checkpoint: fresh("noop.jsonl")})
				if _, err = eng.Run(jobs); err == nil {
					err = eng.Close()
				}
			})
			return d, err
		}},
		{"engine.procpool_roundtrip.cal", func() (time.Duration, error) {
			pool := engine.NewProcPool(engine.ProcConfig{Workers: 1,
				Command: func(int) *exec.Cmd { return exec.Command(exe, "echo") }})
			defer pool.Close()
			req := json.RawMessage(`{"collector":"appel","benchmark":"jess","heap_bytes":1048576}`)
			if _, err := pool.Do(req); err != nil { // spawn outside the timed calls
				return 0, err
			}
			var err error
			d := timed(func() {
				for i := 0; i < 200 && err == nil; i++ {
					_, err = pool.Do(req)
				}
			})
			return d, err
		}},
		{"farm.ledger_append.cal", func() (time.Duration, error) {
			ledger, _, err := farm.OpenLedger(fresh("LEDGER.jsonl"))
			if err != nil {
				return 0, err
			}
			defer ledger.Close()
			d := timed(func() {
				for i := 0; i < 20 && err == nil; i++ {
					_, err = ledger.Append(farm.Entry{
						Spec:    farm.JobSpec{Collector: "appel", Benchmark: "jess", HeapBytes: i + 1, Env: env},
						Outcome: engine.OK, BinaryHash: "probe", Artifact: "runs/probe.json", ResultDigest: "probe"})
				}
			})
			return d, err
		}},
	}, nil
}

// markSweep marks every object of a line-dense 64 KB frame and sweeps it,
// 2000 times over, timing only the marks or only the sweeps.
func markSweep(timeMarks bool) (time.Duration, error) {
	g, err := markregion.NewGeometry(1<<16, markregion.DefaultLineBytes)
	if err != nil {
		return 0, err
	}
	f := g.NewFrame()
	const objBytes = 64
	nObj := g.FrameBytes / objBytes
	for i := 0; i < nObj; i++ {
		f.NoteAlloc(i*objBytes, objBytes)
	}
	sizeOf := func(int) int { return objBytes }
	var marks, sweeps time.Duration
	for i := 0; i < 2000; i++ {
		marks += timed(func() {
			for off := 0; off < g.FrameBytes; off += objBytes {
				f.Mark(off)
			}
		})
		live := 0
		sweeps += timed(func() { live, _ = f.Sweep(sizeOf) })
		if live != nObj {
			return 0, fmt.Errorf("swept to %d live objects, want %d", live, nObj)
		}
	}
	if timeMarks {
		return marks, nil
	}
	return sweeps, nil
}

// serveEcho is the process-pool probe's worker: it answers each request
// with the request.
func serveEcho() error {
	return engine.ServeProc(os.Stdin, os.Stdout, func(req json.RawMessage) (json.RawMessage, error) {
		return req, nil
	})
}
