package remset_test

import (
	"testing"

	"beltway/internal/bench"
)

// Benchmark bodies live in beltway/internal/bench.

func BenchmarkInsertDistinct(b *testing.B)  { bench.RemsetInsertDistinct(b) }
func BenchmarkInsertDuplicate(b *testing.B) { bench.RemsetInsertDuplicate(b) }
func BenchmarkCollectRoots(b *testing.B)    { bench.RemsetCollectRoots(b) }
