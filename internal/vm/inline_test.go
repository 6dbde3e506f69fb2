package vm_test

import (
	"os/exec"
	"path"
	"path/filepath"
	"strings"
	"testing"
)

// The mutator's fast path is one call per layer — this package's method,
// the collector's method behind gc.Collector, one heap accessor — because
// the leaves under those inline. That is the compiler's decision, taken
// against a budget some of them all but fill (addrOf costs 77 of 80), and
// a panic moved back inline, a second call in a leaf or a new toolchain
// can take it away without a test failing or a result changing: only the
// benchmark would say, much later. So the list is committed here and
// checked against what the compiler reports.
var mustInline = []struct{ pkg, fn string }{
	{"internal/heap", "(*Space).lookup"},
	{"internal/heap", "(*Space).decode"},
	{"internal/heap", "(*Space).wordOff"},
	{"internal/heap", "(*Space).FrameOf"},
	{"internal/heap", "(*Space).RefSlotAddr"},
	{"internal/heap", "(*Space).GetData"}, // into the vm method: dataWord is the one call
	{"internal/heap", "(*Space).SetData"},
	{"internal/heap", "(*TypeDesc).Size"},
	{"internal/heap", "(*TypeDesc).NumRefs"},
	{"internal/heap", "(*TypeDesc).dataLayout"},
	{"internal/gc", "(*RootSet).live"},
	{"internal/gc", "(*RootSet).addSlot"},
	{"internal/gc", "(*RootSet).release"},
	{"internal/gc", "(*RootSet).PushScope"},
	{"internal/stats", "(*Clock).Advance"},
	{"internal/vm", "(*Mutator).chargeField"},
	{"internal/vm", "(*Mutator).addrOf"},
	{"internal/core", "(*Heap).bumpTail"},
	{"internal/core", "(*Heap).overcommitted"},
}

func TestFastPathInlines(t *testing.T) {
	goCmd, err := exec.LookPath("go")
	if err != nil {
		t.Fatalf("the inlining guard needs the go command: %v", err)
	}
	args := []string{"build", "-gcflags=-m"}
	seen := map[string]bool{}
	for _, m := range mustInline {
		if !seen[m.pkg] {
			seen[m.pkg] = true
			args = append(args, "beltway/"+m.pkg)
		}
	}
	// The compiler's report comes on standard error, and is replayed from
	// the build cache when the packages are already built.
	out, err := exec.Command(goCmd, args...).CombinedOutput()
	if err != nil {
		t.Fatalf("go %s: %v\n%s", strings.Join(args, " "), err, out)
	}
	inlinable := map[string]bool{}
	for _, line := range strings.Split(string(out), "\n") {
		// ../heap/space.go:254:6: can inline (*Space).lookup — the path is
		// relative to the directory the command runs in, this package's.
		file, fn, ok := strings.Cut(line, ": can inline ")
		if !ok {
			continue
		}
		if abs, err := filepath.Abs(file); err == nil {
			inlinable[filepath.Base(filepath.Dir(abs))+" "+fn] = true
		}
	}
	if len(inlinable) == 0 {
		t.Fatalf("go %s reported no inlinable function at all:\n%s", strings.Join(args, " "), out)
	}
	for _, m := range mustInline {
		if !inlinable[path.Base(m.pkg)+" "+m.fn] {
			t.Errorf("%s: %s no longer inlines; `go build -gcflags=-m=2 ./%s` says why", m.pkg, m.fn, m.pkg)
		}
	}
}
