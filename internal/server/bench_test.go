package server_test

import (
	"testing"

	"beltway/internal/bench"
)

// Benchmark bodies live in beltway/internal/bench so `go test -bench`
// and the cmd/bench regression harness measure the same code.

func BenchmarkReport(b *testing.B) { bench.ServerReport(b) }
