package harness

import (
	"fmt"
	"strings"

	"beltway/internal/telemetry"
)

// corruptionEventTail is how many trailing flight-recorder events a
// HeapCorruptionError carries: enough to see the collections leading up
// to the fault without dumping the whole ring.
const corruptionEventTail = 16

// HeapCorruptionError reports a run one of whose lanes panicked inside
// the heap or vm layers (an unmapped-frame fault, a broken invariant — anything that is
// not the cost-budget abort). The run's state is untrustworthy, so the
// harness surfaces this instead of a Result; the engine records it as a
// failure without taking the worker down.
type HeapCorruptionError struct {
	Collector string
	Benchmark string
	// Lane is the first lane (in id order) that panicked, of Lanes.
	Lane, Lanes int
	// Panic is the recovered panic value.
	Panic any
	// Events is the tail of that lane's flight recorder at the moment of
	// the panic — the collections and degradation steps leading up to it.
	Events []telemetry.Event
}

func (e *HeapCorruptionError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "harness: heap corruption in %s on %s", e.Collector, e.Benchmark)
	if e.Lanes > 1 {
		fmt.Fprintf(&b, " (lane %d of %d)", e.Lane, e.Lanes)
	}
	fmt.Fprintf(&b, ": %v", e.Panic)
	if len(e.Events) > 0 {
		fmt.Fprintf(&b, "\nlast %d flight-recorder events:", len(e.Events))
		for _, ev := range e.Events {
			b.WriteString("\n  ")
			b.WriteString(ev.String())
		}
	}
	return b.String()
}
