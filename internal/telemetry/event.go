// Package telemetry is a run's event stream: a fixed-capacity
// allocation-free flight recorder of typed events (collections, belt
// occupancy, flips, OOMs, server requests, policy decisions), the
// hooks and observers that feed it, the merge of
// per-lane streams, and its renderers (Chrome trace_event JSON, ASCII
// heap timeline). It keeps no counts: a run's numbers are the clock's
// (stats.Counters, the pause list) and reach -metrics-out through
// harness.WriteMetrics.
//
// Telemetry observes the deterministic cost timeline but never advances
// it: hook emission reads stats.Clock.Now() and performs no clock work,
// so enabling telemetry cannot change any experiment's results.
package telemetry

import (
	"fmt"
	"math"

	"beltway/internal/gc"
)

// EventKind discriminates flight-recorder events. The A..D payload slots
// of Event are interpreted per kind; see the constants below.
type EventKind uint8

const (
	// EvNone is the zero value (an empty ring slot).
	EvNone EventKind = iota

	// EvGCBegin: a collection started and its condemned set is fixed.
	//   A = trigger kind (gc.TriggerKind) | full<<8 (1 when the condemned
	//       set spans the whole occupied heap)
	//   B = condemned increments
	//   C = condemned bytes
	//   D = occupied bytes at collection start
	EvGCBegin

	// EvGCEnd: a collection completed. Dur holds the pause length in cost
	// units.
	//   A = bytes copied
	//   B = objects copied
	//   C = remembered-set entries examined
	//   D = barrier slow paths taken since the previous collection
	EvGCEnd

	// EvCondemned: one condemned increment (emitted after EvGCBegin).
	//   A = belt index
	//   B = increment seq | (train+1)<<32 (so 0 in the high word means
	//       "not a MOS car")
	//   C = increment bytes
	//   D = increment frames
	EvCondemned

	// EvBelt: one belt's occupancy after a collection (emitted after
	// EvGCEnd, one event per belt).
	//   A = belt index
	//   B = increments on the belt
	//   C = belt bytes
	//   D = belt frames
	EvBelt

	// EvFlip: an older-first configuration swapped its belts.
	//   A = new allocation belt index
	//   B = remembered-set entries at the flip
	EvFlip

	// EvOOM: the collector gave up on an allocation or exhausted its copy
	// reserve (A == 0 in the latter case).
	//   A = requested bytes
	//   B = configured heap bytes
	EvOOM

	// 7 is retired (it was a step of the deleted degradation ladder):
	// snapshots, Chrome traces and golden digests carry these numbers,
	// so it is not reused.
	_

	// EvRequest: one served server request (internal/server). Time is
	// the request's end, Dur its latency, both in cost units.
	//   A = request kind (0 read, 1 write) | paused<<8 (1 when the
	//       request overlapped a GC pause)
	//   B = key
	//   C = phase index
	//   D = pause cost inside the request, in whole cost units
	EvRequest

	// EvPolicy: the adaptive policy controller made a decision
	// (internal/policy). Marker decisions (e.g. a phase-shift note) carry
	// knob 0.
	//   A = knob id (core.Knob) | (belt+1)<<8 (0 in that byte for a
	//       marker) | reason<<24 (policy.Reason)
	//   B = math.Float64bits of the knob's new value
	EvPolicy
)

func (k EventKind) String() string {
	switch k {
	case EvGCBegin:
		return "gc-begin"
	case EvGCEnd:
		return "gc-end"
	case EvCondemned:
		return "condemned"
	case EvBelt:
		return "belt"
	case EvFlip:
		return "flip"
	case EvOOM:
		return "oom"
	case EvRequest:
		return "request"
	case EvPolicy:
		return "policy"
	default:
		return "none"
	}
}

// Event is one flight-recorder entry. Events are fixed-size values so the
// ring buffer never allocates; the A..D payload slots are typed by Kind
// (see the EventKind constants).
type Event struct {
	Kind EventKind `json:"k"`
	// Seq is the 1-based emission sequence number within the run.
	Seq uint64 `json:"seq"`
	// Time is the cost-model clock at emission.
	Time float64 `json:"t"`
	// Dur is the pause duration in cost units (EvGCEnd only).
	Dur float64 `json:"dur,omitempty"`
	// GC is the 1-based collection ordinal the event belongs to (0 for
	// events outside any collection, e.g. a flip or a mutator OOM).
	GC uint64 `json:"gc,omitempty"`

	A uint64 `json:"a,omitempty"`
	B uint64 `json:"b,omitempty"`
	C uint64 `json:"c,omitempty"`
	D uint64 `json:"d,omitempty"`
}

// String renders the event for diagnostic dumps (validator failures).
func (e Event) String() string {
	switch e.Kind {
	case EvGCBegin:
		full := ""
		if e.A>>8 != 0 {
			full = " full"
		}
		return fmt.Sprintf("#%d t=%.0f gc%d begin trigger=%s%s condemned=%d incrs/%dB occupied=%dB",
			e.Seq, e.Time, e.GC, gc.TriggerKind(e.A), full, e.B, e.C, e.D)
	case EvGCEnd:
		return fmt.Sprintf("#%d t=%.0f gc%d end dur=%.0f copied=%dB/%d objs remset=%d slow=%d",
			e.Seq, e.Time, e.GC, e.Dur, e.A, e.B, e.C, e.D)
	case EvCondemned:
		train := ""
		if hi := e.B >> 32; hi != 0 {
			train = fmt.Sprintf(" train%d", hi-1)
		}
		return fmt.Sprintf("#%d t=%.0f gc%d condemn belt%d/incr%d%s %dB/%d frames",
			e.Seq, e.Time, e.GC, e.A, uint32(e.B), train, e.C, e.D)
	case EvBelt:
		return fmt.Sprintf("#%d t=%.0f gc%d belt%d: %d incrs %dB/%d frames",
			e.Seq, e.Time, e.GC, e.A, e.B, e.C, e.D)
	case EvFlip:
		return fmt.Sprintf("#%d t=%.0f flip alloc-belt=%d remset=%d", e.Seq, e.Time, e.A, e.B)
	case EvOOM:
		return fmt.Sprintf("#%d t=%.0f OOM requested=%d heap=%d", e.Seq, e.Time, e.A, e.B)
	case EvRequest:
		kind := "read"
		if uint8(e.A) == 1 {
			kind = "write"
		}
		paused := ""
		if e.A>>8 != 0 {
			paused = " paused"
		}
		return fmt.Sprintf("#%d t=%.0f request %s key=%d phase=%d dur=%.0f%s",
			e.Seq, e.Time, kind, e.B, e.C, e.Dur, paused)
	case EvPolicy:
		belt := "global"
		if bb := uint8(e.A >> 8); bb != 0 {
			belt = fmt.Sprintf("belt%d", bb-1)
		}
		return fmt.Sprintf("#%d t=%.0f gc%d policy %s: %s(%s)=%g",
			e.Seq, e.Time, e.GC, policyReasonName(uint8(e.A>>24)),
			policyKnobName(uint8(e.A)), belt, math.Float64frombits(e.B))
	default:
		return fmt.Sprintf("#%d t=%.0f %s", e.Seq, e.Time, e.Kind)
	}
}

// policyKnobName mirrors core.Knob.String without importing core
// (telemetry only reads the numeric id it stored in the payload).
func policyKnobName(k uint8) string {
	switch k {
	case 1:
		return "increment-frac"
	case 3:
		return "reserve-frac"
	default:
		return "none"
	}
}

// policyReasonName mirrors policy.Reason.String, again without importing
// the policy package.
func policyReasonName(r uint8) string {
	switch r {
	case 1:
		return "pause-over-budget"
	case 2:
		return "occupancy-revert"
	case 3:
		return "phase-shift"
	default:
		return "none"
	}
}
