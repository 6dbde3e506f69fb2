// Package gc defines the collector-neutral contract between the mutator
// side of the system (internal/vm, internal/workload) and the collector
// implementation (internal/core, configured as Beltway or as the
// paper's generational baselines by internal/collectors). Workloads are
// written once against this interface and run unchanged on every
// collector, which is how the paper compared configurations inside one
// toolkit (GCTk).
package gc

import (
	"errors"
	"fmt"

	"beltway/internal/heap"
	"beltway/internal/stats"
)

// ErrOutOfMemory is returned (wrapped) by Alloc when the configured heap
// cannot satisfy an allocation even after collecting. The harness uses it
// to find minimum heap sizes (paper Table 1).
var ErrOutOfMemory = errors.New("gc: out of memory")

// OOMError carries the failing request for diagnostics.
type OOMError struct {
	Requested int
	HeapBytes int
	Detail    string
}

func (e *OOMError) Error() string {
	return fmt.Sprintf("gc: out of memory: need %d bytes in %d-byte heap (%s)",
		e.Requested, e.HeapBytes, e.Detail)
}

func (e *OOMError) Unwrap() error { return ErrOutOfMemory }

// Collector is a complete garbage-collected runtime: allocation, the
// write barrier, and collection, over a simulated heap.Space.
type Collector interface {
	// Alloc allocates and formats an object of type t (length is the
	// element count for arrays, 0 for scalars), collecting if needed.
	// The returned address is valid until the next collection unless it
	// is reachable from the roots.
	Alloc(t *heap.TypeDesc, length int) (heap.Addr, error)

	// AllocImmortal allocates in the uncollected immortal ("boot image")
	// space. Immortal objects are never moved or reclaimed but their
	// reference slots are traced.
	AllocImmortal(t *heap.TypeDesc, length int) (heap.Addr, error)

	// AllocPretenured allocates directly on an older belt (allocation-
	// site segregation for long-lived objects), collecting if needed.
	AllocPretenured(t *heap.TypeDesc, length int) (heap.Addr, error)

	// WriteRef stores val into reference slot i of obj, running the
	// collector's write barrier.
	WriteRef(obj heap.Addr, slot int, val heap.Addr)

	// ReadRef loads reference slot i of obj.
	ReadRef(obj heap.Addr, slot int) heap.Addr

	// Collect forces a collection. If full is true the whole heap is
	// condemned (where the collector supports it).
	Collect(full bool) error

	// Roots returns the root set scanned (and updated) by collections.
	Roots() *RootSet

	// Space returns the underlying address space (collected frames plus
	// the immortal boot-image frames).
	Space() *heap.Space

	// Clock returns the run's cost-model timeline.
	Clock() *stats.Clock

	// HeapBytes returns the configured heap budget in bytes.
	HeapBytes() int

	// LiveEstimate returns the bytes currently occupied by (not
	// necessarily live) objects in the collected space.
	LiveEstimate() int

	// Name returns the collector configuration's display name.
	Name() string

	// ForEachObject visits every formatted object currently in the heap
	// (collected space and boot image), stopping early if fn returns
	// false. It is a debugging/validation facility; visiting order is
	// deterministic but unspecified.
	ForEachObject(fn func(heap.Addr) bool)
}

// MovedFunc is invoked by collectors for every object they move:
// (from, to). The vm validator does not need it: it keys its mirrors by
// allocation serial, which survives a move.
type MovedFunc func(from, to heap.Addr)

// Hookable is implemented by collectors that support Hooks.
type Hookable interface {
	SetHooks(Hooks)
}
