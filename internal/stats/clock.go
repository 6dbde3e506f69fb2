package stats

import "reflect"

// Clock is the deterministic timeline of a single run. All mutator and
// collector work is charged to the clock in cost units; pauses (intervals
// during which the collector, not the mutator, is running) are recorded so
// that GC time, mutator time and MMU curves can be derived afterwards.
//
// Clock is not safe for concurrent use; the simulated mutator is single
// threaded, as were the paper's benchmarks.
type Clock struct {
	Costs CostModel

	now       float64
	inPause   bool
	pauseFrom float64
	pauses    []Pause
	// gcTime and maxPause are the sum and the maximum of the recorded
	// pauses' durations, kept as EndPause records each one, so that a
	// caller reading them per request (the server loop) pays a field read,
	// not a walk over every pause so far. gcTime starts at zero and adds
	// the durations in timeline order — the additions a loop over Pauses()
	// makes, in the order it makes them — so it holds that loop's bits,
	// not merely its value to rounding.
	gcTime   float64
	maxPause float64

	Counters Counters
}

// Pause is one stop-the-world collection interval on the cost timeline.
type Pause struct {
	Start, End float64
}

// Duration returns the pause length in cost units.
func (p Pause) Duration() float64 { return p.End - p.Start }

// Counters aggregates raw event counts for a run. They are exact work
// counts, independent of the cost model, and are what the tests assert on.
type Counters struct {
	BytesAllocated   uint64
	ObjectsAllocated uint64
	PointerStores    uint64
	BarrierSlowPaths uint64
	RemsetInserts    uint64
	RemsetEntriesGC  uint64 // remset entries examined during collections
	BytesCopied      uint64
	ObjectsCopied    uint64
	SlotsScanned     uint64
	RootsScanned     uint64
	Collections      uint64
	FullCollections  uint64 // collections whose condemned set spanned >= the whole usable heap
	FramesMapped     uint64
	FramesUnmapped   uint64
	BootBytesScanned uint64
	PageFaultBytes   uint64
	CardsScanned     uint64 // dirty cards processed at collections (card barrier)
	PretenuredBytes  uint64 // bytes allocated directly on older belts

	// Mark-region substrate counters.
	MRObjectsMarked   uint64 // objects marked in place (not copied)
	MRBytesMarked     uint64 // bytes of in-place survivors
	MRLinesReclaimed  uint64 // lines returned to free runs by sweeps and unmaps
	MRFramesSwept     uint64 // frames swept in place and kept
	MRFramesEvacuated uint64 // sparse frames emptied through the copy path
}

// Add accumulates o into c field-wise. Aggregation across the mutator
// shards of a multi-mutator run; every field is a uint64 work count, so
// the reflection loop stays correct as counters are added.
func (c *Counters) Add(o Counters) {
	cv := reflect.ValueOf(c).Elem()
	ov := reflect.ValueOf(o)
	for i := 0; i < cv.NumField(); i++ {
		cv.Field(i).SetUint(cv.Field(i).Uint() + ov.Field(i).Uint())
	}
}

// NewClock returns a clock using the given cost model.
func NewClock(c CostModel) *Clock {
	clk := new(Clock)
	clk.Reset(c)
	return clk
}

// Reset starts the clock over on cost model c, as NewClock builds it: no
// time, no pauses, no counts. The pause log keeps its array, so a run on
// a reset clock records its pauses into the last run's storage: read or
// copy Pauses before the reset.
func (c *Clock) Reset(costs CostModel) {
	*c = Clock{Costs: costs, pauses: c.pauses[:0]}
}

// Now returns the current time in cost units.
func (c *Clock) Now() float64 { return c.now }

// Advance charges n cost units to the timeline.
func (c *Clock) Advance(n float64) { c.now += n }

// BeginPause marks the start of a stop-the-world collection.
// Nested pauses are not allowed.
func (c *Clock) BeginPause() {
	if c.inPause {
		panic("stats: nested BeginPause")
	}
	c.inPause = true
	c.pauseFrom = c.now
}

// EndPause marks the end of the current collection and records the pause.
func (c *Clock) EndPause() {
	if !c.inPause {
		panic("stats: EndPause without BeginPause")
	}
	c.inPause = false
	p := Pause{Start: c.pauseFrom, End: c.now}
	c.pauses = append(c.pauses, p)
	d := p.Duration()
	c.gcTime += d
	if d > c.maxPause {
		c.maxPause = d
	}
}

// InPause reports whether a collection is currently charged to the clock.
func (c *Clock) InPause() bool { return c.inPause }

// Pauses returns the recorded pause intervals in timeline order.
func (c *Clock) Pauses() []Pause { return c.pauses }

// GCTime returns total time spent in completed collections, in cost
// units; a pause still open is not in it.
func (c *Clock) GCTime() float64 { return c.gcTime }

// TotalTime returns the full elapsed timeline, in cost units.
func (c *Clock) TotalTime() float64 { return c.now }

// MutatorTime returns TotalTime minus GCTime.
func (c *Clock) MutatorTime() float64 { return c.TotalTime() - c.GCTime() }

// GCFraction returns the fraction of the timeline spent in GC, in [0,1].
func (c *Clock) GCFraction() float64 {
	if c.now == 0 {
		return 0
	}
	return c.GCTime() / c.now
}

// MaxPause returns the longest single completed pause, in cost units.
func (c *Clock) MaxPause() float64 { return c.maxPause }
