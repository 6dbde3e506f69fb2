// Package bench hosts the benchmark bodies for the simulator. Each
// package's bench_test.go delegates here, so a body that sets up several
// layers (a heap, a mutator, a workload) is written once and `go test
// -bench <Name> ./internal/<pkg>` runs it from the package it measures.
package bench
