package heap_test

import (
	"testing"

	"beltway/internal/bench"
)

// Benchmark bodies live in beltway/internal/bench.

func BenchmarkWordAccess(b *testing.B)    { bench.WordAccess(b) }
func BenchmarkFrameMapUnmap(b *testing.B) { bench.FrameMapUnmap(b) }
func BenchmarkCopyObject(b *testing.B)    { bench.CopyObject(b) }
func BenchmarkWalkObjects(b *testing.B)   { bench.WalkObjects(b) }
