package rules

import (
	"bytes"
	"go/format"
	"regexp"
	"testing"
)

// TestGofmt holds every .go file of the repository, tests and examples
// included, to gofmt's output.
func TestGofmt(t *testing.T) {
	for _, f := range moduleIndex(t).files {
		out, err := format.Source(f.src)
		if err != nil {
			t.Errorf("%s: %v", f.path, err)
		} else if !bytes.Equal(out, f.src) {
			t.Errorf("%s: gofmt needed", f.path)
		}
	}
}

// syncPool is a line that names sync.Pool before any comment.
var syncPool = regexp.MustCompile(`^[^/]*sync\.Pool`)

// TestNoSyncPoolOutsideTests: the Go collector empties a sync.Pool at
// every cycle, so what a run hands on goes through a heap.FreeList
// instead (DESIGN.md §5, "Run lifecycle").
func TestNoSyncPoolOutsideTests(t *testing.T) {
	for _, f := range moduleIndex(t).files {
		if f.test {
			continue
		}
		f.lines(func(n int, line string) {
			if syncPool.MatchString(line) {
				t.Errorf("%s:%d: sync.Pool in non-test Go, use a heap.FreeList: %s", f.path, n, line)
			}
		})
	}
}
