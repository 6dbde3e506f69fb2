package heap

import "sync"

// FreeList is a process-wide LIFO list of released items that the next
// run takes instead of allocating. Its users are the slab lists, one per
// frame size (slabLists), and the three values a run is handed between,
// each of which keeps its own parts: shard's runtimes and the harness's
// bench and server bindings. Unlike a sync.Pool, the Go collector never
// empties it: an item stays until a run takes it. It needs no cap,
// because its users create an item only when Take finds the list empty:
// the list never holds more than the process once had in use at the same
// time.
type FreeList[T any] struct {
	mu    sync.Mutex
	items []T
}

// Put appends x to the list.
func (l *FreeList[T]) Put(x T) {
	l.mu.Lock()
	l.items = append(l.items, x)
	l.mu.Unlock()
}

// Take removes and returns the item put last; ok is false when the list
// is empty.
func (l *FreeList[T]) Take() (x T, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := len(l.items)
	if n == 0 {
		return x, false
	}
	x = l.items[n-1]
	var zero T
	l.items[n-1] = zero
	l.items = l.items[:n-1]
	return x, true
}

// Len returns how many items the list holds.
func (l *FreeList[T]) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.items)
}
