package telemetry

import "sort"

// MergeRunSnapshots interleaves per-shard run snapshots into one. Each
// shard of a sharded run keeps a private FlightRecorder (emission stays
// single-owner and lock-free); the merge happens once, at aggregation:
// events interleave by cost-clock Time, ties broken by input (shard)
// order, and are re-stamped with a fresh Seq so the merged stream is a
// well-formed recorder stream; dropped-event counts add. Nil snapshots
// are skipped; merging zero or all-nil snapshots yields an empty
// snapshot.
func MergeRunSnapshots(snaps ...*RunSnapshot) *RunSnapshot {
	out := &RunSnapshot{}
	for _, s := range snaps {
		if s == nil {
			continue
		}
		out.Events = append(out.Events, s.Events...)
		out.DroppedEvents += s.DroppedEvents
	}
	sort.SliceStable(out.Events, func(i, j int) bool {
		return out.Events[i].Time < out.Events[j].Time
	})
	for i := range out.Events {
		out.Events[i].Seq = uint64(i + 1)
	}
	return out
}
