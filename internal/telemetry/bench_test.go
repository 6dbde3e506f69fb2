package telemetry_test

import (
	"testing"

	"beltway/internal/bench"
)

// Benchmark bodies live in beltway/internal/bench.

func BenchmarkEmitEvent(b *testing.B)    { bench.TelemetryEmitEvent(b) }
func BenchmarkGCCycleHooks(b *testing.B) { bench.TelemetryGCCycleHooks(b) }
func BenchmarkCollection(b *testing.B)   { bench.TelemetryCollection(b) }
