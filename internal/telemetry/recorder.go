package telemetry

// DefaultRecorderCap is the flight-recorder capacity used by Run: enough
// to hold the full GC history of a short run and the recent history of a
// long one (each collection emits 2 + condemned + belts events).
const DefaultRecorderCap = 512

// FlightRecorder is a fixed-capacity ring buffer of Events. Emit never
// allocates: the buffer is sized once at construction and old events are
// overwritten when it wraps. It is not safe for concurrent use — one
// recorder belongs to one (single-threaded) run.
type FlightRecorder struct {
	buf   []Event
	total uint64 // events emitted over the recorder's lifetime
}

// NewFlightRecorder returns a recorder holding the last capacity events
// (DefaultRecorderCap when capacity <= 0).
func NewFlightRecorder(capacity int) *FlightRecorder {
	r := new(FlightRecorder)
	r.reset(capacity)
	return r
}

// reset makes r the empty recorder NewFlightRecorder(capacity) returns,
// in r's own ring when it has that capacity: a recorder reads back only
// the events it emitted itself, so an earlier run's events in the ring
// are never seen.
func (r *FlightRecorder) reset(capacity int) {
	if capacity <= 0 {
		capacity = DefaultRecorderCap
	}
	if len(r.buf) != capacity {
		r.buf = make([]Event, capacity)
	}
	r.total = 0
}

// Emit appends e, stamping its Seq (1-based). Zero allocations.
func (r *FlightRecorder) Emit(e Event) {
	r.total++
	e.Seq = r.total
	r.buf[(r.total-1)%uint64(len(r.buf))] = e
}

// Cap returns the ring capacity.
func (r *FlightRecorder) Cap() int { return len(r.buf) }

// Total returns the number of events emitted over the recorder's
// lifetime (including overwritten ones).
func (r *FlightRecorder) Total() uint64 { return r.total }

// Dropped returns how many events have been overwritten.
func (r *FlightRecorder) Dropped() uint64 {
	if n := uint64(len(r.buf)); r.total > n {
		return r.total - n
	}
	return 0
}

// Events returns the retained events, oldest first, as a fresh slice.
func (r *FlightRecorder) Events() []Event {
	n := r.total
	if c := uint64(len(r.buf)); n > c {
		n = c
	}
	out := make([]Event, 0, n)
	start := r.total - n
	for i := start; i < r.total; i++ {
		out = append(out, r.buf[i%uint64(len(r.buf))])
	}
	return out
}

// Last returns up to n of the most recent events, oldest first.
func (r *FlightRecorder) Last(n int) []Event {
	ev := r.Events()
	if len(ev) > n {
		ev = ev[len(ev)-n:]
	}
	return ev
}
