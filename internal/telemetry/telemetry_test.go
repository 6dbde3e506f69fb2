package telemetry

import (
	"bytes"
	"encoding/json"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"beltway/internal/gc"
)

func TestFlightRecorderWrap(t *testing.T) {
	r := NewFlightRecorder(4)
	if r.Cap() != 4 {
		t.Fatalf("Cap = %d, want 4", r.Cap())
	}
	for i := 0; i < 10; i++ {
		r.Emit(Event{Kind: EvFlip, A: uint64(i)})
	}
	if r.Total() != 10 {
		t.Errorf("Total = %d, want 10", r.Total())
	}
	if r.Dropped() != 6 {
		t.Errorf("Dropped = %d, want 6", r.Dropped())
	}
	ev := r.Events()
	if len(ev) != 4 {
		t.Fatalf("retained %d events, want 4", len(ev))
	}
	for i, e := range ev {
		wantSeq := uint64(7 + i) // oldest retained is the 7th emission
		if e.Seq != wantSeq || e.A != wantSeq-1 {
			t.Errorf("event %d: seq=%d A=%d, want seq=%d A=%d", i, e.Seq, e.A, wantSeq, wantSeq-1)
		}
	}
	last := r.Last(2)
	if len(last) != 2 || last[0].Seq != 9 || last[1].Seq != 10 {
		t.Errorf("Last(2) = %+v, want seqs 9,10", last)
	}
	if got := r.Last(100); len(got) != 4 {
		t.Errorf("Last(100) returned %d events, want 4", len(got))
	}
}

func TestFlightRecorderDefaults(t *testing.T) {
	r := NewFlightRecorder(0)
	if r.Cap() != DefaultRecorderCap {
		t.Errorf("Cap = %d, want %d", r.Cap(), DefaultRecorderCap)
	}
	if r.Dropped() != 0 || len(r.Events()) != 0 {
		t.Error("fresh recorder is not empty")
	}
}

func TestRunSnapshotJSONRoundTrip(t *testing.T) {
	s := &RunSnapshot{
		Events: []Event{
			{Kind: EvGCBegin, Seq: 1, Time: 100, GC: 1, A: 1, B: 2, C: 3, D: 4},
			{Kind: EvGCEnd, Seq: 2, Time: 200, Dur: 100, GC: 1, A: 9},
		},
		DroppedEvents: 7,
	}
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var back RunSnapshot
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s, &back) {
		t.Errorf("round trip mismatch:\n%+v\n%+v", s, &back)
	}
}

// syntheticEvents is a plausible two-collection event stream for the
// renderer tests.
func syntheticEvents() []Event {
	return []Event{
		{Kind: EvGCBegin, Seq: 1, Time: 1000, GC: 1, A: 1, B: 2, C: 4096, D: 8192},
		{Kind: EvCondemned, Seq: 2, Time: 1000, GC: 1, A: 0, B: 3, C: 2048, D: 1},
		{Kind: EvCondemned, Seq: 3, Time: 1000, GC: 1, A: 0, B: 4 | 2<<32, C: 2048, D: 1},
		{Kind: EvGCEnd, Seq: 4, Time: 2000, Dur: 1000, GC: 1, A: 1024, B: 10, C: 3, D: 5},
		{Kind: EvBelt, Seq: 5, Time: 2000, GC: 1, A: 0, B: 1, C: 2048, D: 1},
		{Kind: EvBelt, Seq: 6, Time: 2000, GC: 1, A: 1, B: 2, C: 4096, D: 2},
		{Kind: EvFlip, Seq: 7, Time: 2500, A: 1, B: 12},
		{Kind: EvGCBegin, Seq: 8, Time: 3000, GC: 2, A: 4 | 1<<8, B: 3, C: 8192, D: 8192},
		{Kind: EvGCEnd, Seq: 9, Time: 4000, Dur: 1000, GC: 2, A: 2048, B: 20, C: 0, D: 0},
		{Kind: EvOOM, Seq: 10, Time: 5000, A: 64, B: 1 << 20},
	}
}

func TestChromeTraceValidJSON(t *testing.T) {
	var buf bytes.Buffer
	err := WriteChromeTrace(&buf, []TraceRun{
		{Name: "BSS / jess", Pid: 1, Events: syntheticEvents()},
		{Name: "BA2 / jess", Pid: 2, Events: nil},
	})
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace output is not valid JSON: %v\n%s", err, buf.String())
	}
	var slices, metas, instants int
	for _, e := range doc.TraceEvents {
		switch e["ph"] {
		case "X":
			slices++
			if e["dur"].(float64) <= 0 {
				t.Errorf("slice with non-positive dur: %v", e)
			}
			if e["ts"].(float64) < 0 {
				t.Errorf("slice with negative ts: %v", e)
			}
		case "M":
			metas++
		case "i":
			instants++
		}
	}
	if slices != 2 {
		t.Errorf("got %d GC slices, want 2", slices)
	}
	if metas != 2 {
		t.Errorf("got %d process metadata events, want 2", metas)
	}
	if instants != 2 { // flip + OOM
		t.Errorf("got %d instants, want 2", instants)
	}
}

func TestTimelineRendering(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteTimeline(&buf, "BSS / jess", syntheticEvents()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"BSS / jess", "gc", "heap-full", "forced-full!", "flip", "OOM", "belt"} {
		if !strings.Contains(out, want) {
			t.Errorf("timeline missing %q:\n%s", want, out)
		}
	}
	if err := WriteTimeline(&buf, "empty", nil); err != nil {
		t.Errorf("empty event stream should render: %v", err)
	}
}

func TestEventString(t *testing.T) {
	for _, e := range syntheticEvents() {
		if s := e.String(); s == "" || !strings.Contains(s, "#") {
			t.Errorf("Event.String for %v rendered %q", e.Kind, s)
		}
	}
	if s := (Event{Kind: EvCondemned, B: 4 | 2<<32}).String(); !strings.Contains(s, "train1") {
		t.Errorf("condemned event lost its train: %q", s)
	}
	if s := (Event{Kind: EvGCBegin, A: 4 | 1<<8}).String(); !strings.Contains(s, "full") {
		t.Errorf("full gc-begin lost its flag: %q", s)
	}
	// The trigger and degradation-step names are gc's own, and the wire
	// numbers they stand for do not move.
	for k, name := range []string{"unknown", "heap-full", "remset", "forced", "forced-full", "emergency", "unknown"} {
		want := "#0 t=0 gc0 begin trigger=" + name + " condemned=0 incrs/0B occupied=0B"
		if got := (Event{Kind: EvGCBegin, A: uint64(k)}).String(); got != want {
			t.Errorf("trigger %d renders %q, want %q", k, got, want)
		}
	}
	for k, name := range []string{"unknown", "emergency-collection", "retry-averted", "reserve-retry",
		"reserve-overdraft", "remset-overflow", "unknown"} {
		want := "#0 t=0 degrade step=" + name + " requested=0 heap=0"
		if got := (Event{Kind: EvDegrade, A: uint64(k)}).String(); got != want {
			t.Errorf("degrade step %d renders %q, want %q", k, got, want)
		}
	}
}

// TestHooksFeedRunEndToEnd drives the Run's hooks the way a collector
// would and checks the recorder observes the stream, payloads included.
func TestHooksFeedRunEndToEnd(t *testing.T) {
	r := NewRun(nil)
	hk := r.Hooks()
	hk.GCBegin(gc.GCBeginInfo{Trigger: gc.TriggerHeapFull, CondemnedIncrements: 2, CondemnedBytes: 4096, OccupiedBytes: 8192})
	hk.Condemned(gc.IncrementInfo{Belt: 0, Seq: 3, Train: -1, Bytes: 2048, Frames: 1})
	hk.GCEnd(gc.GCEndInfo{Duration: 500, BytesCopied: 1024, ObjectsCopied: 10, RemsetEntries: 3, BarrierSlowPaths: 5, SurvivorBytes: 4096})
	hk.Occupancy(gc.BeltStat{Belt: 0, Increments: 1, Bytes: 2048, Frames: 1})
	hk.GCBegin(gc.GCBeginInfo{Trigger: gc.TriggerForcedFull, Full: true, CondemnedBytes: 8192, OccupiedBytes: 8192})
	hk.GCEnd(gc.GCEndInfo{Duration: 1500, BytesCopied: 2048, SurvivorBytes: 6144})
	hk.Flip(1, 7)
	hk.OOM(64, 1<<20)

	s := r.Snapshot()
	if len(s.Events) != 8 {
		t.Fatalf("recorded %d events, want 8", len(s.Events))
	}
	for i, e := range s.Events {
		if e.Seq != uint64(i+1) {
			t.Errorf("event %d has seq %d", i, e.Seq)
		}
	}
	if s.Events[4].A&0xff != uint64(gc.TriggerForcedFull) || s.Events[4].A>>8 != 1 {
		t.Errorf("full flag not packed: A=%#x", s.Events[4].A)
	}
	if end := s.Events[2]; end.Kind != EvGCEnd || end.GC != 1 || end.Dur != 500 ||
		end.A != 1024 || end.B != 10 || end.C != 3 || end.D != 5 {
		t.Errorf("gc-end payload wrong: %+v", end)
	}
	if begin := s.Events[0]; begin.C != 4096 || begin.D != 8192 || begin.B != 2 {
		t.Errorf("gc-begin payload wrong: %+v", begin)
	}
	if s.Events[5].GC != 2 || s.Events[5].Dur != 1500 {
		t.Errorf("second gc-end wrong: %+v", s.Events[5])
	}
	if flip, oom := s.Events[6], s.Events[7]; flip.Kind != EvFlip || flip.A != 1 || flip.B != 7 ||
		oom.Kind != EvOOM || oom.A != 64 || oom.B != 1<<20 {
		t.Errorf("flip/oom payloads wrong: %+v %+v", flip, oom)
	}
}

// Zero-allocation guards: the acceptance criteria require every telemetry
// hot path to be allocation-free.
func TestZeroAllocHotPaths(t *testing.T) {
	rec := NewFlightRecorder(64)
	if n := testing.AllocsPerRun(1000, func() {
		rec.Emit(Event{Kind: EvGCEnd, Time: 1, Dur: 2, A: 3})
	}); n != 0 {
		t.Errorf("FlightRecorder.Emit allocates %v/op", n)
	}
	// A full collection's worth of hook invocations.
	r := NewRun(nil)
	hk := r.Hooks()
	begin := gc.GCBeginInfo{Trigger: gc.TriggerHeapFull, CondemnedIncrements: 1, CondemnedBytes: 1024, OccupiedBytes: 2048}
	incr := gc.IncrementInfo{Belt: 0, Seq: 1, Train: -1, Bytes: 1024, Frames: 1}
	end := gc.GCEndInfo{Duration: 100, BytesCopied: 512, RemsetEntries: 2, BarrierSlowPaths: 1, SurvivorBytes: 512}
	belt := gc.BeltStat{Belt: 0, Increments: 1, Bytes: 512, Frames: 1}
	if n := testing.AllocsPerRun(1000, func() {
		hk.GCBegin(begin)
		hk.Condemned(incr)
		hk.GCEnd(end)
		hk.Occupancy(belt)
		hk.Flip(1, 2)
		hk.OOM(0, 1<<20)
	}); n != 0 {
		t.Errorf("full hook emission allocates %v/op", n)
	}
	// The observers emit and do nothing else: no per-request or
	// per-decision allocation.
	srv, pol := r.ServerObserver(), r.PolicyObserver()
	if n := testing.AllocsPerRun(1000, func() {
		srv.Request(1, 0, 42, 1000, 250, 0)
		pol.Decision(3, 2000, 1, 1, 0, 0.125)
	}); n != 0 {
		t.Errorf("observer emission allocates %v/op", n)
	}
}

// A recorder built after another's Release records into its ring, even
// across Go collections, from its first event; the released one holds
// nothing and takes no more events.
func TestFlightRecorderReleaseHandsRingOn(t *testing.T) {
	old := NewFlightRecorder(0)
	for i := 0; i < DefaultRecorderCap+100; i++ {
		old.Emit(Event{Kind: EvFlip, A: uint64(i)})
	}
	ring := &old.buf[0]
	old.Release()
	if old.Total() != 0 || len(old.Events()) != 0 {
		t.Errorf("released recorder still holds %d events", len(old.Events()))
	}
	runtime.GC()
	runtime.GC()
	r := NewFlightRecorder(0)
	if r.Cap() != DefaultRecorderCap || r.Total() != 0 || len(r.Events()) != 0 {
		t.Fatalf("recorder after a release: cap %d, %d events", r.Cap(), len(r.Events()))
	}
	if &r.buf[0] != ring {
		t.Error("the recorder built after a release did not take the released ring")
	}
	r.Emit(Event{Kind: EvOOM, A: 7})
	if ev := r.Events(); len(ev) != 1 || ev[0].Kind != EvOOM || ev[0].Seq != 1 {
		t.Errorf("recorder after a release read back %+v", ev)
	}
	defer func() {
		if recover() == nil {
			t.Error("Emit on a released recorder did not panic")
		}
	}()
	old.Emit(Event{Kind: EvFlip})
}
