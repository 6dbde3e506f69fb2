package rules

import (
	"fmt"
	"os/exec"
	"strings"
	"sync"
	"testing"
)

// goTool is the go command. A rule that needs it fails without it: a
// skipped rule is a dropped one.
func goTool(t *testing.T) string {
	t.Helper()
	goCmd, err := exec.LookPath("go")
	if err != nil {
		t.Fatalf("the import and flag rules need the go command: %v", err)
	}
	return goCmd
}

var (
	graphOnce sync.Once
	theGraph  map[string][]string
	graphErr  error
)

// importGraph maps every package `go list -deps -test ./...` lists, test
// variants included, to its direct imports.
func importGraph(t *testing.T) map[string][]string {
	t.Helper()
	goCmd, root := goTool(t), moduleIndex(t).root
	graphOnce.Do(func() {
		cmd := exec.Command(goCmd, "list", "-deps", "-test", "-f", "{{.ImportPath}}{{range .Imports}}\t{{.}}{{end}}", "./...")
		cmd.Dir = root
		out, err := cmd.Output()
		if err != nil {
			graphErr = fmt.Errorf("go list: %v\n%s", err, stderrOf(err))
			return
		}
		theGraph = map[string][]string{}
		for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
			fields := strings.Split(line, "\t")
			theGraph[fields[0]] = fields[1:]
		}
	})
	if graphErr != nil {
		t.Fatal(graphErr)
	}
	return theGraph
}

func stderrOf(err error) []byte {
	if ee, ok := err.(*exec.ExitError); ok {
		return ee.Stderr
	}
	return nil
}

// deps is pkg and everything it imports, directly or not.
func deps(graph map[string][]string, pkg string) map[string]bool {
	seen := map[string]bool{}
	var walk func(string)
	walk = func(p string) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, q := range graph[p] {
			walk(q)
		}
	}
	walk(pkg)
	return seen
}

// importRules are the layering of the module: pkg must not import
// forbidden, directly (direct) or through any path.
var importRules = []struct {
	pkg, forbidden string
	direct         bool
	why            string
}{
	{"internal/shard", "internal/engine", false,
		"the lane runtime stays below the experiment scheduler: internal/shard is every run's substrate and " +
			"internal/engine schedules runs; a global collection that builds an engine again puts a second " +
			"recover between a lane's panic and its verdict"},
	{"internal/shard", "internal/remset", true,
		"lanes route nothing: lanes share nothing and meet only at a global collection, so no cross-lane " +
			"reference exists and internal/shard keeps no remembered set of its own"},
	{"internal/telemetry", "net/http", false,
		"the event stream stays an event stream: internal/telemetry is a flight recorder and its renderers, " +
			"with no HTTP endpoint"},
	{"internal/telemetry", "sync/atomic", true,
		"the event stream stays an event stream: no second ledger of atomic counters; a run's numbers are " +
			"the clock's and reach -metrics-out through the Result (checked among the package's own imports: " +
			"every program reaches sync/atomic through sync and fmt)"},
	{"internal/harness", "internal/trace", false,
		"every run executes its workload directly: the workloads are deterministic, so a run records and " +
			"replays nothing (internal/trace serves the oracle and the measuring stick's probes)"},
}

func TestImportRules(t *testing.T) {
	ix := moduleIndex(t)
	graph := importGraph(t)
	qualify := func(p string) string {
		if strings.HasPrefix(p, "internal/") {
			return ix.module + "/" + p
		}
		return p
	}
	for _, r := range importRules {
		pkg, forbidden := qualify(r.pkg), qualify(r.forbidden)
		if _, ok := graph[pkg]; !ok {
			t.Errorf("go list does not list %s", pkg)
			continue
		}
		reached := deps(graph, pkg)
		if r.direct {
			reached = map[string]bool{}
			for _, q := range graph[pkg] {
				reached[q] = true
			}
		}
		if reached[forbidden] {
			t.Errorf("%s imports %s: %s", pkg, forbidden, r.why)
		}
	}
}

// TestNoBenchmarkPackage: a benchmark body lives in the bench_test.go of
// the package it measures, never in a shared package that tests import.
func TestNoBenchmarkPackage(t *testing.T) {
	bench := moduleIndex(t).module + "/internal/bench"
	for p := range importGraph(t) {
		if base, _, _ := strings.Cut(p, " "); base == bench || base == bench+"_test" || base == bench+".test" {
			t.Errorf("go list -deps -test ./... lists %s: a benchmark body belongs in the bench_test.go of the package it measures", p)
		}
	}
}
