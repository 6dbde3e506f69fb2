package workload_test

import (
	"testing"

	"beltway/internal/bench"
)

// Benchmark bodies live in beltway/internal/bench.

func BenchmarkWorkloadJess(b *testing.B)      { bench.WorkloadJess(b) }
func BenchmarkWorkloadRaytrace(b *testing.B)  { bench.WorkloadRaytrace(b) }
func BenchmarkWorkloadDB(b *testing.B)        { bench.WorkloadDB(b) }
func BenchmarkWorkloadJavac(b *testing.B)     { bench.WorkloadJavac(b) }
func BenchmarkWorkloadJack(b *testing.B)      { bench.WorkloadJack(b) }
func BenchmarkWorkloadPseudoJBB(b *testing.B) { bench.WorkloadPseudoJBB(b) }
