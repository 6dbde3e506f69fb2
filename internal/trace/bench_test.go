package trace_test

import (
	"testing"

	"beltway/internal/bench"
)

// Benchmark bodies live in beltway/internal/bench.

// BenchmarkRecordOverhead measures the mutator slowdown of recording.
func BenchmarkRecordOverhead(b *testing.B) {
	b.Run("off", bench.TraceRecordOff)
	b.Run("on", bench.TraceRecordOn)
}

func BenchmarkReplay(b *testing.B)    { bench.TraceReplay(b) }
func BenchmarkSerialize(b *testing.B) { bench.TraceSerialize(b) }
