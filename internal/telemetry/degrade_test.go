package telemetry

import (
	"strings"
	"testing"

	"beltway/internal/gc"
)

func TestDegradedHookCountersAndEvents(t *testing.T) {
	r := NewRun(nil)
	hooks := r.Hooks()

	hooks.Degraded(gc.DegradeInfo{Step: gc.DegradeEmergencyGC, HeapBytes: 1 << 16})
	hooks.Degraded(gc.DegradeInfo{Step: gc.DegradeEmergencyGC, HeapBytes: 1 << 16})
	hooks.Degraded(gc.DegradeInfo{Step: gc.DegradeRetryAverted, Requested: 28, HeapBytes: 1 << 16})
	hooks.Degraded(gc.DegradeInfo{Step: gc.DegradeOverdraft, HeapBytes: 1 << 16})

	ev := r.Recorder().Events()
	if len(ev) != 4 {
		t.Fatalf("recorded %d events, want 4 (one per ladder step)", len(ev))
	}
	for i, want := range []gc.DegradeStep{
		gc.DegradeEmergencyGC, gc.DegradeEmergencyGC, gc.DegradeRetryAverted, gc.DegradeOverdraft,
	} {
		e := ev[i]
		if e.Kind != EvDegrade {
			t.Fatalf("event %d kind = %v, want EvDegrade", i, e.Kind)
		}
		if gc.DegradeStep(e.A) != want {
			t.Errorf("event %d step = %d, want %v", i, e.A, want)
		}
		if e.C != 1<<16 {
			t.Errorf("event %d heap bytes = %d, want %d", i, e.C, 1<<16)
		}
	}
	if got := ev[2].B; got != 28 {
		t.Errorf("retry-averted event requested = %d, want 28", got)
	}
	if s := ev[0].String(); !strings.Contains(s, "degrade step=emergency-collection") {
		t.Errorf("EvDegrade String = %q, want a readable step name", s)
	}
}

func TestEmergencyTriggerName(t *testing.T) {
	e := Event{Kind: EvGCBegin, A: 5, B: 3}
	if s := e.String(); !strings.Contains(s, "trigger=emergency") {
		t.Errorf("EvGCBegin String = %q, want trigger=emergency for gc.TriggerEmergency", s)
	}
	if got := EvDegrade.String(); got != "degrade" {
		t.Errorf("EvDegrade.String() = %q", got)
	}
}
