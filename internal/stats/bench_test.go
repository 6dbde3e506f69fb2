package stats_test

import (
	"testing"

	"beltway/internal/bench"
)

// Benchmark bodies live in beltway/internal/bench.

func BenchmarkClockPauseTotals(b *testing.B) { bench.ClockPauseTotals(b) }
