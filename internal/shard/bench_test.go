package shard_test

import (
	"testing"

	"beltway/internal/bench"
)

// Benchmark bodies live in beltway/internal/bench.

func BenchmarkShardScale1(b *testing.B) { bench.ShardScale(b, 1) }
func BenchmarkShardScale2(b *testing.B) { bench.ShardScale(b, 2) }
func BenchmarkShardScale4(b *testing.B) { bench.ShardScale(b, 4) }
func BenchmarkShardScale8(b *testing.B) { bench.ShardScale(b, 8) }

func BenchmarkShardFreeRounds2(b *testing.B) { bench.ShardFreeRounds(b, 2) }
func BenchmarkShardFreeRounds4(b *testing.B) { bench.ShardFreeRounds(b, 4) }
