package server_test

import (
	"testing"

	"beltway/internal/collectors"
	"beltway/internal/core"
	"beltway/internal/harness"
	"beltway/internal/heap"
	"beltway/internal/server"
	"beltway/internal/shard"
	"beltway/internal/vm"
)

// runServer measures the request/response server workload end to end on
// one preset. Reported extras:
//
//	req/s          requests served per wall-clock second (host
//	               throughput of the whole simulator stack)
//	p99-cost/op    exact p99 request latency in simulated cost units —
//	               the SLO-bearing number, identical on any host
//	max-cost/op    worst single-request latency in cost units
//
// The cost-unit extras are deterministic, so a difference between two
// runs is a tail regression (a collector change parking pauses under requests) even
// when host throughput is noisy.
func runServer(b *testing.B, preset string, mutators int) {
	sc := server.Scaled(0.1)
	env := harness.EnvForScale(0.1)
	env.Mutators = mutators
	cfg := serverConfig(b, preset, sc, env)
	b.ReportAllocs()
	var served int
	var p99, max float64
	for i := 0; i < b.N; i++ {
		res, rerr := harness.RunServer(cfg, sc, server.SLO{}, env)
		if rerr != nil {
			b.Fatal(rerr)
		}
		if res.OOM {
			b.Fatal("server bench OOM: heap sizing is off")
		}
		served += res.Server.Overall.Requests
		p99 = res.Server.Overall.Latency.P99
		max = res.Server.Overall.Latency.Max
	}
	b.ReportMetric(float64(served)/b.Elapsed().Seconds(), "req/s")
	b.ReportMetric(p99, "p99-cost/op")
	b.ReportMetric(max, "max-cost/op")
}

// serverConfig is preset in a heap of three times the script's estimated
// live bytes, as `cmd/beltway -server -heap 3` sizes it.
func serverConfig(b *testing.B, preset string, sc server.Config, env harness.Env) core.Config {
	hb := (3*sc.EstLiveBytes()/env.FrameBytes + 1) * env.FrameBytes
	cfg, err := collectors.Parse(preset, collectors.Options{HeapBytes: hb, FrameBytes: env.FrameBytes})
	if err != nil {
		b.Fatal(err)
	}
	return cfg
}

func BenchmarkServerBeltway(b *testing.B)  { runServer(b, "25.25", 1) }
func BenchmarkServerAppel(b *testing.B)    { runServer(b, "appel", 1) }
func BenchmarkServerImmix(b *testing.B)    { runServer(b, "immix", 1) }
func BenchmarkServerSharded4(b *testing.B) { runServer(b, "25.25", 4) }

// BenchmarkReport measures what closing a two-lane server run's
// measurement costs once the lanes are done: ReportLoops over two lanes
// of 72,000 latencies each (server_mix's script, at its heap). Serving
// the requests is set-up; one b.N iteration is the report, on phases in
// arrival order (restored, untimed, after each report sorts them).
func BenchmarkReport(b *testing.B) {
	sc := server.Scaled(2)
	cfg := serverConfig(b, "25.25", sc, harness.EnvForScale(2))
	loops := make([]*server.Loop, 2)
	arrival := make([][]float64, len(loops))
	for lane := range loops {
		lc := sc
		lc.Seed = shard.StreamSeed(sc.Seed, lane)
		loop, err := server.NewLoop(lc, server.LoopOpts{})
		if err != nil {
			b.Fatal(err)
		}
		h, err := core.New(cfg, heap.NewRegistry())
		if err != nil {
			b.Fatal(err)
		}
		m := vm.New(h)
		if err := m.Run(func() {
			loop.Start(m, h.Space().Types)
			for !loop.Done() {
				loop.RunBatch()
			}
		}); err != nil {
			b.Fatal(err)
		}
		h.Release()
		loops[lane] = loop
		arrival[lane] = append([]float64(nil), server.LatencyBuffer(loop)...)
	}
	var p999 float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for lane, loop := range loops {
			copy(server.LatencyBuffer(loop), arrival[lane])
		}
		b.StartTimer()
		p999 = server.ReportLoops(loops, server.SLO{}).Overall.Latency.P999
	}
	b.ReportMetric(p999, "p999-cost/op")
}
