package server_test

import (
	"testing"

	"beltway/internal/bench"
)

// Benchmark bodies live in beltway/internal/bench.

func BenchmarkServerBeltway(b *testing.B)  { bench.ServerBeltway(b) }
func BenchmarkServerAppel(b *testing.B)    { bench.ServerAppel(b) }
func BenchmarkServerImmix(b *testing.B)    { bench.ServerImmix(b) }
func BenchmarkServerSharded4(b *testing.B) { bench.ServerSharded4(b) }
func BenchmarkReport(b *testing.B)         { bench.ServerReport(b) }
