package shard_test

import (
	"testing"

	"beltway/internal/collectors"
	"beltway/internal/gc"
	"beltway/internal/shard"
)

// shardScale runs a fixed rounds-with-barriers plan over n mutator
// shards: every round each shard allocates a linked chain off its
// private nursery and keeps its head; every second round boundary runs
// a rendezvoused global collection, the shard heaps side by side.
// Reported extras:
//
//	makespan-cost/op    simulated N-core elapsed cost units per run
//	agg-B-per-cost/op   aggregate (allocated+copied) bytes per makespan
//	                    cost unit — the scaling curve's y axis
//	copied-bytes/op     aggregate GC copy traffic, as in the core suite
//
// The throughput metric is measured against the simulated machine's
// clock, so the curve is identical on any host core count.
func shardScale(b *testing.B, n int) {
	b.ReportAllocs()
	var makespan, throughput, copied float64
	for i := 0; i < b.N; i++ {
		cfg := collectors.XX100(25, collectors.Options{HeapBytes: 512 << 10, FrameBytes: 8 << 10})
		rt, err := shard.New(cfg, shard.Options{Shards: n, Seed: 20020617})
		if err != nil {
			b.Fatal(err)
		}
		plan := shard.Plan{
			Rounds:       8,
			CollectEvery: 2,
			Body: func(round int, s *shard.Shard) {
				node := s.Heap.Space().Types.Lookup("bench.node")
				if node == nil {
					node = s.Heap.Space().Types.DefineScalar("bench.node", 2, 4)
				}
				s.M.Push()
				var last gc.Handle
				for j := 0; j < 400; j++ {
					h := s.M.Alloc(node, 0)
					s.M.SetData(h, 0, uint32(s.Rng.Intn(1<<16)))
					s.M.SetRef(h, 0, last)
					last = h
					s.M.Work(8)
				}
				s.M.Keep(last)
				s.M.Pop()
			},
		}
		if err := rt.Run(plan); err != nil {
			b.Fatal(err)
		}
		var moved, runCopied uint64 // bytes allocated plus copied; bytes copied
		for _, s := range rt.Shards() {
			if s.OOM() {
				b.Fatal("shard bench OOM: heap sizing is off")
			}
			c := s.Heap.Clock().Counters
			moved += c.BytesAllocated + c.BytesCopied
			runCopied += c.BytesCopied
		}
		makespan += rt.Makespan()
		throughput += float64(moved) / rt.Makespan()
		copied += float64(runCopied)
	}
	b.ReportMetric(makespan/float64(b.N), "makespan-cost/op")
	b.ReportMetric(throughput/float64(b.N), "agg-B-per-cost/op")
	b.ReportMetric(copied/float64(b.N), "copied-bytes/op")
}

func BenchmarkShardScale1(b *testing.B) { shardScale(b, 1) }
func BenchmarkShardScale2(b *testing.B) { shardScale(b, 2) }
func BenchmarkShardScale4(b *testing.B) { shardScale(b, 4) }
func BenchmarkShardScale8(b *testing.B) { shardScale(b, 8) }

// shardFreeRounds is the case beside shardScale that never collects
// globally: n lanes x 1,000 rounds of a few
// cost units of work each — the shape of the server plan, with the
// requests taken out. What is left of a round is its boundary, so
// ns/round (host time inside Runtime.Run per round of the plan, all
// lanes running at once) is the price of one; building the runtime is
// outside the timer.
func shardFreeRounds(b *testing.B, n int) {
	const rounds = 1000
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		cfg := collectors.XX100(25, collectors.Options{HeapBytes: 512 << 10, FrameBytes: 8 << 10})
		rt, err := shard.New(cfg, shard.Options{Shards: n, Seed: 20020617})
		if err != nil {
			b.Fatal(err)
		}
		plan := shard.Plan{Rounds: rounds, Body: func(_ int, s *shard.Shard) {
			s.M.Work(4)
		}}
		b.StartTimer()
		if err := rt.Run(plan); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		rt.Release()
		b.StartTimer()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/rounds, "ns/round")
}

func BenchmarkShardFreeRounds2(b *testing.B) { shardFreeRounds(b, 2) }
func BenchmarkShardFreeRounds4(b *testing.B) { shardFreeRounds(b, 4) }
