package telemetry

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
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

func TestBucketIndex(t *testing.T) {
	cases := []struct {
		v    float64
		want int
	}{
		{-5, 0}, {0, 0}, {0.5, 0}, {1, 0},
		{1.5, 1}, {2, 1},
		{2.5, 2}, {3, 2}, {4, 2},
		{5, 3}, {8, 3},
		{1024, 10}, {1025, 11},
		{math.MaxFloat64, histBuckets - 1},
	}
	for _, c := range cases {
		if got := bucketIndex(c.v); got != c.want {
			t.Errorf("bucketIndex(%v) = %d, want %d", c.v, got, c.want)
		}
		// The defining property: v <= bound(idx) and (idx == 0 or v > bound(idx-1)).
		if c.v > 0 && c.v < math.MaxFloat64 {
			idx := bucketIndex(c.v)
			if c.v > bucketBound(idx) {
				t.Errorf("v=%v above its bucket bound %v", c.v, bucketBound(idx))
			}
			if idx > 0 && c.v <= bucketBound(idx-1) {
				t.Errorf("v=%v fits the previous bucket (bound %v)", c.v, bucketBound(idx-1))
			}
		}
	}
	if !math.IsInf(bucketBound(histBuckets-1), 1) {
		t.Error("overflow bucket bound is not +Inf")
	}
}

func TestHistogramBasics(t *testing.T) {
	h := &Histogram{}
	vals := []float64{1, 3, 7, 100, 1000, -2}
	for _, v := range vals {
		h.Observe(v)
	}
	if h.Count() != 6 {
		t.Errorf("Count = %d, want 6", h.Count())
	}
	if h.Sum() != 1111 { // -2 clamps to 0
		t.Errorf("Sum = %v, want 1111", h.Sum())
	}
	if h.Max() != 1000 {
		t.Errorf("Max = %v, want 1000", h.Max())
	}
	if got := h.Quantile(1); got != 1000 {
		t.Errorf("Quantile(1) = %v, want exact max", got)
	}
	// Quantiles are monotone in q and within [0, max].
	prev := -1.0
	for _, q := range []float64{0, 0.25, 0.5, 0.9, 0.99, 1} {
		v := h.Quantile(q)
		if v < prev-1e-9 {
			t.Errorf("Quantile(%v)=%v below Quantile at lower q (%v)", q, v, prev)
		}
		if v < 0 || v > 1000 {
			t.Errorf("Quantile(%v)=%v out of range", q, v)
		}
		prev = v
	}
	var empty Histogram
	if empty.Quantile(0.5) != 0 {
		t.Error("empty histogram quantile should be 0")
	}
}

func TestHistogramMergeCommutative(t *testing.T) {
	mk := func(vals ...float64) *HistogramSnapshot {
		h := &Histogram{}
		for _, v := range vals {
			h.Observe(v)
		}
		return h.Snapshot()
	}
	a1, b1 := mk(1, 5, 9, 300), mk(2, 2, 1e9)
	a2, b2 := mk(1, 5, 9, 300), mk(2, 2, 1e9)
	a1.Merge(b1)
	b2.Merge(a2)
	if !reflect.DeepEqual(a1, b2) {
		t.Errorf("merge not commutative:\n%+v\n%+v", a1, b2)
	}
	if a1.Count != 7 {
		t.Errorf("merged count %d, want 7", a1.Count)
	}
	if a1.Max != 1e9 {
		t.Errorf("merged max %v, want 1e9", a1.Max)
	}
}

func TestRegistryDuplicatePanics(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("x", "")
	defer func() {
		if recover() == nil {
			t.Error("duplicate registration did not panic")
		}
	}()
	r.NewGauge("x", "")
}

func TestRegistrySnapshotMerge(t *testing.T) {
	a := &RegistrySnapshot{
		Counters: map[string]uint64{"c": 3},
		Gauges:   map[string]float64{"g": 5},
	}
	b := &RegistrySnapshot{
		Counters: map[string]uint64{"c": 4, "c2": 1},
		Gauges:   map[string]float64{"g": 2, "g2": 7},
	}
	a.Merge(b)
	if a.Counters["c"] != 7 || a.Counters["c2"] != 1 {
		t.Errorf("counter merge wrong: %v", a.Counters)
	}
	if a.Gauges["g"] != 5 || a.Gauges["g2"] != 7 {
		t.Errorf("gauge merge should keep max: %v", a.Gauges)
	}
}

func TestPrometheusText(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("gc_total", "collections")
	g := r.NewGauge("occupied", "bytes")
	h := r.NewHistogram("pause", "pause cost")
	c.Add(5)
	g.Set(123.5)
	for _, v := range []float64{1, 2, 3, 1000} {
		h.Observe(v)
	}
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf, `collector="BSS"`); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# HELP gc_total collections",
		"# TYPE gc_total counter",
		`gc_total{collector="BSS"} 5`,
		"# TYPE occupied gauge",
		`occupied{collector="BSS"} 123.5`,
		"# TYPE pause histogram",
		`pause_bucket{collector="BSS",le="+Inf"} 4`,
		`pause_sum{collector="BSS"} 1006`,
		`pause_count{collector="BSS"} 4`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q:\n%s", want, out)
		}
	}
	// Cumulative bucket counts must be non-decreasing and end at count.
	var prevCum uint64
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, "pause_bucket") {
			continue
		}
		var n uint64
		if _, err := fmtSscanLast(line, &n); err != nil {
			t.Fatalf("parse %q: %v", line, err)
		}
		if n < prevCum {
			t.Errorf("bucket series decreases at %q", line)
		}
		prevCum = n
	}
	if prevCum != 4 {
		t.Errorf("final cumulative bucket %d, want 4", prevCum)
	}
}

// fmtSscanLast parses the trailing integer of a prometheus sample line.
func fmtSscanLast(line string, n *uint64) (int, error) {
	i := strings.LastIndexByte(line, ' ')
	return 1, json.Unmarshal([]byte(line[i+1:]), n)
}

func TestRunSnapshotJSONRoundTrip(t *testing.T) {
	h := &Histogram{}
	h.Observe(5)
	h.Observe(700)
	s := &RunSnapshot{
		Events: []Event{
			{Kind: EvGCBegin, Seq: 1, Time: 100, GC: 1, A: 1, B: 2, C: 3, D: 4},
			{Kind: EvGCEnd, Seq: 2, Time: 200, Dur: 100, GC: 1, A: 9},
		},
		DroppedEvents: 7,
		Metrics: &RegistrySnapshot{
			Counters:   map[string]uint64{"c": 1},
			Gauges:     map[string]float64{"g": 2.5},
			Histograms: map[string]*HistogramSnapshot{"h": h.Snapshot()},
		},
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
}

func TestAggregator(t *testing.T) {
	run := func(pause float64) *RunSnapshot {
		h := &Histogram{}
		h.Observe(pause)
		return &RunSnapshot{Metrics: &RegistrySnapshot{
			Counters:   map[string]uint64{MetricCollections: 1},
			Histograms: map[string]*HistogramSnapshot{MetricPauseCost: h.Snapshot()},
		}}
	}
	a := NewAggregator()
	a.Add("BSS", run(10))
	a.Add("BSS", run(30))
	a.Add("BA2", run(20))
	if got := a.Collectors(); len(got) != 2 {
		t.Fatalf("Collectors = %v", got)
	}
	snap := a.Snapshot()
	if snap["BSS"].Counters[MetricCollections] != 2 {
		t.Errorf("BSS collections = %d, want 2", snap["BSS"].Counters[MetricCollections])
	}
	if snap["BSS"].Histograms[MetricPauseCost].Count != 2 {
		t.Error("BSS pause histogram not merged")
	}
	var buf bytes.Buffer
	if err := a.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{`collector="BSS"`, `collector="BA2"`, "gc_pause_cost_units_bucket"} {
		if !strings.Contains(out, want) {
			t.Errorf("aggregated prometheus missing %q", want)
		}
	}
	buf.Reset()
	if err := a.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc map[string]*RegistrySnapshot
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("aggregator JSON invalid: %v", err)
	}
	if len(doc) != 2 {
		t.Errorf("aggregator JSON has %d collectors, want 2", len(doc))
	}
}

func TestAggregatorSnapshotIsolated(t *testing.T) {
	a := NewAggregator()
	h := &Histogram{}
	h.Observe(1)
	a.Add("X", &RunSnapshot{Metrics: &RegistrySnapshot{
		Counters:   map[string]uint64{"c": 1},
		Histograms: map[string]*HistogramSnapshot{"h": h.Snapshot()},
	}})
	s1 := a.Snapshot()
	s1["X"].Counters["c"] = 99
	s1["X"].Histograms["h"].Count = 99
	s2 := a.Snapshot()
	if s2["X"].Counters["c"] != 1 || s2["X"].Histograms["h"].Count != 1 {
		t.Error("Snapshot shares state with the aggregator")
	}
}

// TestHooksFeedRunEndToEnd drives the Run's hooks the way a collector
// would and checks both sides (recorder + registry) observe the stream.
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
	m := s.Metrics
	if m.Counters[MetricCollections] != 2 || m.Counters[MetricFullCollections] != 1 {
		t.Errorf("collection counters wrong: %v", m.Counters)
	}
	if m.Counters[MetricBarrierSlow] != 5 || m.Counters[MetricFlips] != 1 || m.Counters[MetricOOMs] != 1 {
		t.Errorf("counters wrong: %v", m.Counters)
	}
	if m.Counters[MetricCondemnedBytes] != 4096+8192 {
		t.Errorf("condemned bytes = %d", m.Counters[MetricCondemnedBytes])
	}
	ph := m.Histograms[MetricPauseCost]
	if ph.Count != 2 || ph.Max != 1500 {
		t.Errorf("pause histogram wrong: %+v", ph)
	}
	if got := ph.Quantile(1); got != 1500 {
		t.Errorf("pause histogram Quantile(1) = %v", got)
	}
	if g := m.Gauges[MetricOccupiedBytes]; g != 6144 {
		t.Errorf("occupied gauge = %v", g)
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
	var c Counter
	if n := testing.AllocsPerRun(1000, func() { c.Add(3) }); n != 0 {
		t.Errorf("Counter.Add allocates %v/op", n)
	}
	var g Gauge
	if n := testing.AllocsPerRun(1000, func() { g.Set(1.5) }); n != 0 {
		t.Errorf("Gauge.Set allocates %v/op", n)
	}
	h := &Histogram{}
	if n := testing.AllocsPerRun(1000, func() { h.Observe(123) }); n != 0 {
		t.Errorf("Histogram.Observe allocates %v/op", n)
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
}
