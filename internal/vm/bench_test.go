package vm_test

import (
	"testing"

	"beltway/internal/bench"
)

// Benchmark bodies live in beltway/internal/bench.

func BenchmarkMutatorOps(b *testing.B) { bench.MutatorOps(b) }
