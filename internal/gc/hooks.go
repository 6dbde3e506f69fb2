package gc

// TriggerKind classifies why a collection started. It is reported to the
// GCBegin hook and recorded by the telemetry flight recorder, so that a
// pause in a trace can be attributed to the scheduling rule that caused
// it (§3.3.3 describes the triggers).
type TriggerKind uint8

const (
	// TriggerUnknown is the zero value; collectors should never emit it.
	TriggerUnknown TriggerKind = iota
	// TriggerHeapFull: an allocation could not be satisfied within the
	// heap budget (the common case; includes the nursery trigger, which
	// is the heap-full rule applied to a bounded nursery increment).
	TriggerHeapFull
	// TriggerRemset: the remset trigger fired — remembered entries
	// targeting a collectible increment exceeded the threshold.
	TriggerRemset
	// TriggerForced: an explicit Collect(false) call.
	TriggerForced
	// TriggerForcedFull: an explicit Collect(true) call condemning the
	// whole heap.
	TriggerForcedFull
	// TriggerEmergency: the graceful-degradation ladder condemned every
	// collectible increment as a last resort before surfacing an OOM —
	// the X.X -> X.X.100 completeness fallback.
	TriggerEmergency
)

func (t TriggerKind) String() string {
	switch t {
	case TriggerHeapFull:
		return "heap-full"
	case TriggerRemset:
		return "remset"
	case TriggerForced:
		return "forced"
	case TriggerForcedFull:
		return "forced-full"
	case TriggerEmergency:
		return "emergency"
	default:
		return "unknown"
	}
}

// GCBeginInfo describes a collection at the moment its condemned set is
// fixed, before any copying.
type GCBeginInfo struct {
	Trigger TriggerKind
	// Full reports whether the condemned set spans the whole occupied
	// heap (the FullCollections counter uses the same rule).
	Full bool
	// CondemnedIncrements and CondemnedBytes size the condemned set.
	CondemnedIncrements int
	CondemnedBytes      int
	// OccupiedBytes is the collected-space occupancy when the collection
	// started.
	OccupiedBytes int
}

// GCEndInfo describes a completed collection. All counter-style fields
// are deltas for THIS collection, not run totals.
type GCEndInfo struct {
	// Duration is the pause length so far in cost units. The hook runs
	// inside the pause (so the validator and recorder observe a
	// consistent heap); Duration covers all collection work.
	Duration float64
	// BytesCopied/ObjectsCopied are the evacuation volume.
	BytesCopied   uint64
	ObjectsCopied uint64
	// RemsetEntries is the number of remembered-set entries examined.
	RemsetEntries uint64
	// CardsScanned is the number of dirty cards processed (card-marking
	// configurations only).
	CardsScanned uint64
	// BootBytesScanned is the boot-image volume scanned (boundary-barrier
	// configurations only).
	BootBytesScanned uint64
	// BarrierSlowPaths counts barrier slow paths taken since the previous
	// collection (mutator-window activity, attributed to this GC).
	BarrierSlowPaths uint64
	// SurvivorBytes is the collected-space occupancy after the
	// collection.
	SurvivorBytes int
	// MRObjectsMarked/MRBytesMarked count survivors marked in place by
	// the mark-region substrate (instead of being copied);
	// MRFramesEvacuated counts sparse frames defragmented through the
	// copy path. All zero for purely copying configurations.
	MRObjectsMarked   uint64
	MRBytesMarked     uint64
	MRFramesEvacuated uint64
}

// IncrementInfo identifies one increment in hook callbacks.
type IncrementInfo struct {
	Belt   int
	Seq    uint32
	Train  int // MOS train id; -1 outside MOS belts
	Bytes  int
	Frames int
}

// BeltStat is a per-belt occupancy snapshot.
type BeltStat struct {
	Belt       int
	Increments int
	Bytes      int
	Frames     int
}

// DegradeStep identifies one rung of the graceful-degradation ladder.
type DegradeStep uint8

const (
	// DegradeEmergencyGC: an emergency full-heap collection ran (every
	// collectible increment condemned) before declaring OOM.
	DegradeEmergencyGC DegradeStep = iota + 1
	// DegradeRetryAverted: the allocation that exhausted the heap
	// succeeded on retry after the emergency collection — the OOM was
	// averted.
	DegradeRetryAverted
	// DegradeReserveRetry: an injected copy-reserve failure was absorbed
	// by retrying the grant.
	DegradeReserveRetry
	// DegradeOverdraft: the copy reserve was exhausted mid-collection and
	// the collector mapped a frame beyond its cap (settled by an
	// emergency collection at the next safe point).
	DegradeOverdraft
	// DegradeRemsetOverflow: a remembered-set insert was dropped (capped
	// remset); every later collection condemns all increments and scans
	// the boot image until the invariant is re-established.
	DegradeRemsetOverflow
)

func (s DegradeStep) String() string {
	switch s {
	case DegradeEmergencyGC:
		return "emergency-collection"
	case DegradeRetryAverted:
		return "retry-averted"
	case DegradeReserveRetry:
		return "reserve-retry"
	case DegradeOverdraft:
		return "reserve-overdraft"
	case DegradeRemsetOverflow:
		return "remset-overflow"
	default:
		return "unknown"
	}
}

// DegradeInfo describes one degradation-ladder step as it happens.
type DegradeInfo struct {
	Step DegradeStep
	// Requested is the allocation size that triggered the ladder (0 for
	// mid-collection steps).
	Requested int
	// HeapBytes is the configured heap budget.
	HeapBytes int
}

// Hooks are optional collector callbacks, used by the validator and by
// the telemetry subsystem. All fields may be nil; the zero value is a
// valid no-op set. Hook implementations must not mutate the heap and
// must not advance the clock — they observe the timeline, they are not
// on it.
type Hooks struct {
	// PreGC runs after the collector has decided to collect, before any
	// copying.
	PreGC func()
	// PostGC runs after a collection completes (after GCEnd/Occupancy).
	PostGC func()
	// Moved runs for every object copied during a collection.
	Moved MovedFunc

	// GCBegin runs once per collection, after the condemned set is fixed
	// and before any copying.
	GCBegin func(GCBeginInfo)
	// Condemned runs once per condemned increment, after GCBegin.
	Condemned func(IncrementInfo)
	// GCEnd runs once per completed collection, still inside the pause,
	// before PostGC. Collections aborted by an error (copy reserve
	// exhausted) do not reach GCEnd; the OOM hook fires instead.
	GCEnd func(GCEndInfo)
	// Occupancy runs once per belt after each collection (between GCEnd
	// and PostGC), delivering the post-collection heap composition.
	Occupancy func(BeltStat)
	// Flip runs when an older-first configuration swaps its belts,
	// reporting the new allocation belt and the remembered-set entry
	// count at the flip.
	Flip func(newAllocBelt, remsetEntries int)
	// OOM runs when the collector gives up on an allocation (or exhausts
	// the copy reserve mid-collection; requested is 0 in that case).
	OOM func(requested, heapBytes int)
	// Degraded runs for every graceful-degradation ladder step the
	// collector takes (emergency collection, reserve retry, overdraft,
	// remset overflow) before — and hopefully instead of — an OOM.
	Degraded func(DegradeInfo)
}

// Merge composes two hook sets: each callback invokes h's hook, then
// o's. Nil fields compose to the other side's hook unchanged, so merging
// with the zero Hooks is the identity.
func (h Hooks) Merge(o Hooks) Hooks {
	return Hooks{
		PreGC:     merge0(h.PreGC, o.PreGC),
		PostGC:    merge0(h.PostGC, o.PostGC),
		Moved:     merge2(h.Moved, o.Moved),
		GCBegin:   merge1(h.GCBegin, o.GCBegin),
		Condemned: merge1(h.Condemned, o.Condemned),
		GCEnd:     merge1(h.GCEnd, o.GCEnd),
		Occupancy: merge1(h.Occupancy, o.Occupancy),
		Flip:      mergeII(h.Flip, o.Flip),
		OOM:       mergeII(h.OOM, o.OOM),
		Degraded:  merge1(h.Degraded, o.Degraded),
	}
}

func merge0(a, b func()) func() {
	switch {
	case a == nil:
		return b
	case b == nil:
		return a
	}
	return func() { a(); b() }
}

func merge1[T any](a, b func(T)) func(T) {
	switch {
	case a == nil:
		return b
	case b == nil:
		return a
	}
	return func(v T) { a(v); b(v) }
}

func merge2[T, U any](a, b func(T, U)) func(T, U) {
	switch {
	case a == nil:
		return b
	case b == nil:
		return a
	}
	return func(x T, y U) { a(x, y); b(x, y) }
}

func mergeII(a, b func(int, int)) func(int, int) { return merge2(a, b) }
