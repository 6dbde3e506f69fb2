// Command tracebench performs trace-driven collector comparison: record
// a bundled benchmark's mutator event stream once, then replay the
// identical stream against any set of collector configurations. Because
// the input is bit-identical across replays, every difference in the
// report is pure collector policy.
//
// Usage:
//
//	tracebench -bench jess -scale 0.25 -heapMB 2            # record + compare defaults
//	tracebench -bench db -gcs "appel,25.25.100,bof:25"      # choose collectors
//	tracebench -bench javac -record javac.trace             # record to file
//	tracebench -trace javac.trace -gcs "cards:25.25.100"    # replay from file
//	tracebench -bench jess -jobs 8                          # parallel replays
//
// Replays run in parallel on a worker pool (-jobs); the report rows are
// printed in spec order, so output is identical for any -jobs value.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"text/tabwriter"

	"beltway/internal/collectors"
	"beltway/internal/core"
	"beltway/internal/engine"
	"beltway/internal/harness"
	"beltway/internal/heap"
	"beltway/internal/stats"
	"beltway/internal/telemetry"
	"beltway/internal/trace"
	"beltway/internal/vm"
	"beltway/internal/workload"
)

func main() {
	var (
		benchName = flag.String("bench", "jess", "benchmark to record")
		scale     = flag.Float64("scale", 0.25, "workload scale for recording")
		heapMB    = flag.Float64("heapMB", 0, "heap size in MB (0 = 1.5x recorded min)")
		gcs       = flag.String("gcs", "ss,appel,ba2,fixed:25,25.25,25.25.100,25.25.mos,bof:25,bofm:25",
			"comma-separated collector specs to replay against")
		recordTo  = flag.String("record", "", "write the recorded trace to this file and exit")
		replayArg = flag.String("trace", "", "replay this trace file instead of recording")
		seed      = flag.Int64("seed", 1, "PRNG seed for recording")
		jobs      = flag.Int("jobs", runtime.GOMAXPROCS(0),
			"parallel replays (worker pool size); the report order is fixed")
	)
	files := telemetry.BindFileFlags(flag.CommandLine)
	flag.Parse()

	env := harness.EnvForScale(*scale)
	heapBytes := int(*heapMB * (1 << 20))

	var tr *trace.Trace
	switch {
	case *replayArg != "":
		f, err := os.Open(*replayArg)
		if err != nil {
			fatalf("%v", err)
		}
		tr, err = trace.ReadFrom(f)
		f.Close()
		if err != nil {
			fatalf("%v", err)
		}
		fmt.Printf("loaded trace %s (%d bytes)\n", *replayArg, tr.Len())
		if heapBytes == 0 {
			fatalf("-heapMB is required when replaying from a file")
		}
	default:
		b := workload.Get(*benchName)
		if b == nil {
			fatalf("unknown benchmark %q (have: %v)", *benchName, workload.Names())
		}
		if heapBytes == 0 {
			mk := func(h int) core.Config {
				c, err := collectors.Parse("appel", collectors.Options{HeapBytes: h, FrameBytes: env.FrameBytes})
				if err != nil {
					panic(err)
				}
				return c
			}
			min, err := harness.FindMinHeap(mk, b, env)
			if err != nil {
				fatalf("min heap search: %v", err)
			}
			heapBytes = min * 3 / 2
		}
		fmt.Printf("recording %s at scale %v in a %.2f MB heap...\n",
			b.Name, *scale, float64(heapBytes)/(1<<20))
		tr = trace.NewTrace()
		types := heap.NewRegistry()
		h, err := core.New(collectors.XX100(25, collectors.Options{
			HeapBytes: heapBytes, FrameBytes: env.FrameBytes}), types)
		if err != nil {
			fatalf("%v", err)
		}
		m := vm.New(h)
		m.SetRecorder(tr)
		ctx := &workload.Ctx{M: m, Types: types, Rng: rand.New(rand.NewSource(*seed)), Scale: *scale}
		if err := m.Run(func() { b.Body(ctx) }); err != nil {
			fatalf("recording failed: %v", err)
		}
		fmt.Printf("trace: %d bytes, %.2f MB allocated\n\n",
			tr.Len(), float64(h.Clock().Counters.BytesAllocated)/(1<<20))
	}

	if *recordTo != "" {
		f, err := os.Create(*recordTo)
		if err != nil {
			fatalf("%v", err)
		}
		if _, err := tr.WriteTo(f); err != nil {
			fatalf("%v", err)
		}
		f.Close()
		fmt.Printf("wrote %s\n", *recordTo)
		return
	}

	// Replays are independent — each gets a fresh heap and mutator over
	// the shared read-only trace — so they run in parallel through the
	// engine. A panicking or failing replay degrades to a "failed" row;
	// rows print in spec order regardless of completion order.
	var cfgs []core.Config
	for _, spec := range strings.Split(*gcs, ",") {
		spec = strings.TrimSpace(spec)
		cfg, err := collectors.Parse(spec, collectors.Options{
			HeapBytes: heapBytes, FrameBytes: env.FrameBytes})
		if err != nil {
			fatalf("%v", err)
		}
		cfgs = append(cfgs, cfg)
	}
	type replayRow struct {
		Collections     uint64                 `json:"collections"`
		FullCollections uint64                 `json:"full_collections"`
		CopiedMB        float64                `json:"copied_mb"`
		RemsetInserts   uint64                 `json:"remset_inserts"`
		CardsScanned    uint64                 `json:"cards_scanned"`
		GCFraction      float64                `json:"gc_fraction"`
		MedianPauseMS   float64                `json:"median_pause_ms"`
		P95PauseMS      float64                `json:"p95_pause_ms"`
		P99PauseMS      float64                `json:"p99_pause_ms"`
		MaxPauseMS      float64                `json:"max_pause_ms"`
		Telemetry       *telemetry.RunSnapshot `json:"telemetry,omitempty"`
	}
	eng := engine.New(engine.Config{Workers: *jobs})
	ejobs := make([]engine.Job, len(cfgs))
	for i := range cfgs {
		cfg := cfgs[i]
		ejobs[i] = engine.Job{
			Key: engine.Key{Experiment: "tracebench", Collector: cfg.Name, HeapBytes: heapBytes},
			Run: func() (any, engine.Outcome, error) {
				types := heap.NewRegistry()
				h, err := core.New(cfg, types)
				if err != nil {
					return nil, "", err
				}
				tele := telemetry.NewRun(h.Clock())
				h.SetHooks(tele.Hooks())
				m := vm.New(h)
				if err := trace.Replay(tr, m); err != nil {
					return nil, "", err
				}
				c := h.Clock().Counters
				ps := stats.SummarizePauses(h.Clock().Pauses())
				return replayRow{
					Collections:     c.Collections,
					FullCollections: c.FullCollections,
					CopiedMB:        float64(c.BytesCopied) / (1 << 20),
					RemsetInserts:   c.RemsetInserts,
					CardsScanned:    c.CardsScanned,
					GCFraction:      h.Clock().GCFraction(),
					MedianPauseMS:   ps.Median / 733e3,
					P95PauseMS:      ps.P95 / 733e3,
					P99PauseMS:      ps.P99 / 733e3,
					MaxPauseMS:      ps.Max / 733e3,
					Telemetry:       tele.Snapshot(),
				}, engine.OK, nil
			},
		}
	}
	recs, err := eng.Run(ejobs)
	if err != nil {
		fatalf("%v", err)
	}

	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "collector\tGCs\tfull\tcopied MB\tremset ins\tcards\tGC %\tp50 ms\tp95 ms\tp99 ms\tmax ms")
	agg := telemetry.NewAggregator()
	var runs []telemetry.TraceRun
	for i, rec := range recs {
		if rec.Outcome != engine.OK {
			fmt.Fprintf(w, "%s\tfailed: %s\t\t\t\t\t\t\t\t\t\n", cfgs[i].Name, rec.Error)
			continue
		}
		var r replayRow
		if err := json.Unmarshal(rec.Payload, &r); err != nil {
			fmt.Fprintf(w, "%s\tfailed: %v\t\t\t\t\t\t\t\t\t\n", cfgs[i].Name, err)
			continue
		}
		fmt.Fprintf(w, "%s\t%d\t%d\t%.2f\t%d\t%d\t%.1f%%\t%.3f\t%.3f\t%.3f\t%.3f\n",
			cfgs[i].Name, r.Collections, r.FullCollections,
			r.CopiedMB, r.RemsetInserts, r.CardsScanned,
			100*r.GCFraction, r.MedianPauseMS, r.P95PauseMS, r.P99PauseMS, r.MaxPauseMS)
		if r.Telemetry != nil {
			agg.Add(cfgs[i].Name, r.Telemetry)
			runs = append(runs, telemetry.TraceRun{Name: cfgs[i].Name, Pid: len(runs) + 1, Events: r.Telemetry.Events})
		}
	}
	w.Flush()

	if err := files.Write("tracebench", runs, agg); err != nil {
		fatalf("%v", err)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "tracebench: "+format+"\n", args...)
	os.Exit(1)
}
