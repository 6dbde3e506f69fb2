// Package bench hosts the canonical benchmark bodies for the simulator.
// Each package's bench_test.go delegates here, so `go test -bench` and
// the cmd/bench regression harness (which runs these via
// testing.Benchmark and emits BENCH_<date>.json) measure the same code.
package bench

import "testing"

// Entry is one named benchmark belonging to a suite.
type Entry struct {
	Suite string
	Name  string
	Fn    func(*testing.B)
}

// Suites lists the suite names in run order.
func Suites() []string {
	return []string{"heap", "core", "vm", "markregion", "remset", "trace", "telemetry", "workload", "server", "stats", "shard"}
}

// All returns every registered benchmark in deterministic (suite, then
// declaration) order. The shard suite's entries come last and are
// generated from ShardCounts (one per mutator width), so callers may
// trim the scaling curve before registration.
func All() []Entry {
	return append(static(), shardEntries()...)
}

func static() []Entry {
	return []Entry{
		{"heap", "WordAccess", WordAccess},
		{"heap", "FrameMapUnmap", FrameMapUnmap},
		{"heap", "CopyObject", CopyObject},
		{"heap", "WalkObjects", WalkObjects},
		{"core", "Alloc", Alloc},
		{"core", "WriteBarrierFastPath", WriteBarrierFastPath},
		{"core", "WriteBarrierSlowPath", WriteBarrierSlowPath},
		{"core", "NurseryCollection", NurseryCollection},
		{"core", "FullCollection", FullCollection},
		{"core", "CheneyScan", CheneyScan},
		{"core", "TightHeapRun", TightHeapRun},
		{"core", "RoomyHeapRun", RoomyHeapRun},
		{"vm", "MutatorOps", MutatorOps},
		{"markregion", "MarkRegionAlloc", MarkRegionAlloc},
		{"markregion", "LineMark", LineMark},
		{"markregion", "MarkRegionFullCollection", MarkRegionFullCollection},
		{"remset", "InsertDistinct", RemsetInsertDistinct},
		{"remset", "InsertDuplicate", RemsetInsertDuplicate},
		{"remset", "CollectRoots", RemsetCollectRoots},
		{"trace", "RecordOff", TraceRecordOff},
		{"trace", "RecordOn", TraceRecordOn},
		{"trace", "Replay", TraceReplay},
		{"trace", "Serialize", TraceSerialize},
		{"telemetry", "EmitEvent", TelemetryEmitEvent},
		{"telemetry", "HistogramObserve", TelemetryHistogramObserve},
		{"telemetry", "CounterAdd", TelemetryCounterAdd},
		{"telemetry", "GCCycleHooks", TelemetryGCCycleHooks},
		{"telemetry", "Collection", TelemetryCollection},
		{"workload", "Jess", WorkloadJess},
		{"workload", "Raytrace", WorkloadRaytrace},
		{"workload", "DB", WorkloadDB},
		{"workload", "Javac", WorkloadJavac},
		{"workload", "Jack", WorkloadJack},
		{"workload", "PseudoJBB", WorkloadPseudoJBB},
		{"server", "Beltway", ServerBeltway},
		{"server", "Appel", ServerAppel},
		{"server", "Immix", ServerImmix},
		{"server", "Sharded4", ServerSharded4},
		{"server", "Report", ServerReport},
		{"stats", "ClockPauseTotals", ClockPauseTotals},
	}
}
