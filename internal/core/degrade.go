package core

import (
	"beltway/internal/gc"
	"beltway/internal/heap"
)

// Graceful degradation. The paper concedes that Beltway X.X "is not
// complete": cyclic garbage spanning increments is never reclaimed by
// incremental collections, so a tight heap eventually dies even though
// a full-heap collection would free it. With Config.Degrade set, the
// collector takes the X.X -> X.X.100 fallback the paper's completeness
// discussion implies instead of failing:
//
//  1. emergency full-heap collection — condemn every collectible
//     increment simultaneously, which reclaims cross-increment cycles
//     exactly as the .100 belt of a complete configuration would;
//
//  2. retry the failed allocation once;
//
//  3. only then surface a gc.OOMError, carrying the ladder steps taken
//     in its Degradation field.
//
// Mid-collection pressure cannot run the ladder directly — a Cheney
// copy cannot abort halfway — so a reserve exhausted mid-collection is
// absorbed by a bounded *overdraft* (map beyond the cap, settle with an
// emergency collection at the next safe point). On X.X.100 at its
// minimum heap that is what happens: the copy reserve runs out in the
// middle of a collection.
type degradeState struct {
	// history records the ladder steps taken since the last clean point
	// (a successful rescue or a surfaced OOM), oldest first, with
	// consecutive duplicates collapsed.
	history []string
	// pendingEmergency requests an emergency collection at the next safe
	// point (set by a mid-collection overdraft).
	pendingEmergency bool
	// overdraftFrames counts frames mapped beyond the whole-heap cap by
	// the current collection.
	overdraftFrames int
}

// noteDegrade records one ladder step and reports it to the Degraded
// hook. History collapses consecutive duplicates so a pathological run
// cannot grow an unbounded error message, while the hook still fires
// per event (telemetry counts events, not distinct steps).
func (h *Heap) noteDegrade(step gc.DegradeStep, requested int) {
	s := step.String()
	if n := len(h.deg.history); n == 0 || h.deg.history[n-1] != s {
		h.deg.history = append(h.deg.history, s)
	}
	if h.hooks.Degraded != nil {
		h.hooks.Degraded(gc.DegradeInfo{Step: step, Requested: requested, HeapBytes: h.cfg.HeapBytes})
	}
}

// oomError is the single exit point for out-of-memory conditions: it
// fires the OOM hook exactly once and builds the structured error,
// attaching (and draining) the degradation history. With no history the
// error is byte-identical to the pre-ladder form.
func (h *Heap) oomError(requested int, detail string) error {
	h.noteOOM(requested)
	e := &gc.OOMError{Requested: requested, HeapBytes: h.cfg.HeapBytes, Detail: detail}
	if len(h.deg.history) > 0 {
		e.Degradation = append([]string(nil), h.deg.history...)
		h.deg.history = h.deg.history[:0]
	}
	return e
}

// overdraftLimit bounds how many frames a collection may map beyond the
// whole-heap cap: enough to finish evacuating any plausible survivor
// set, small enough that a real accounting bug still trips the cap.
func (h *Heap) overdraftLimit() int {
	limit := h.cfg.HeapBytes / (4 * h.cfg.FrameBytes)
	if limit < 16 {
		limit = 16
	}
	return limit
}

// emergencyCollect condemns every increment on every belt. It clears the
// overdraft debt both before and after running so a collection triggered
// to settle an overdraft cannot re-request itself.
func (h *Heap) emergencyCollect() error {
	h.deg.pendingEmergency = false
	h.deg.overdraftFrames = 0
	if h.numIncrements() == 0 {
		return nil
	}
	h.noteDegrade(gc.DegradeEmergencyGC, 0)
	err := h.collect(h.beltsBelow(len(h.belts)), gc.TriggerEmergency)
	h.deg.pendingEmergency = false
	h.deg.overdraftFrames = 0
	return err
}

// rescueAlloc runs the mutator-facing ladder after an allocation path
// has exhausted its normal collection attempts: emergency collection,
// then one retry. Callers gate on Config.Degrade. A successful retry
// clears the history — the OOM was averted, the run is clean again.
func (h *Heap) rescueAlloc(size int, retry func() (heap.Addr, bool)) (heap.Addr, bool, error) {
	if err := h.emergencyCollect(); err != nil {
		return heap.Nil, false, err
	}
	if a, ok := retry(); ok {
		h.noteDegrade(gc.DegradeRetryAverted, size)
		h.deg.history = h.deg.history[:0]
		return a, true, nil
	}
	return heap.Nil, false, nil
}
