package markregion_test

import (
	"testing"

	"beltway/internal/bench"
)

// Benchmark bodies live in beltway/internal/bench.

func BenchmarkMarkRegionAlloc(b *testing.B)          { bench.MarkRegionAlloc(b) }
func BenchmarkLineMark(b *testing.B)                 { bench.LineMark(b) }
func BenchmarkMarkRegionFullCollection(b *testing.B) { bench.MarkRegionFullCollection(b) }
