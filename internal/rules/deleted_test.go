package rules

import (
	"context"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

// A deletion is a mechanism the repository took out, with what must stay
// gone for it to stay out: names no non-test Go line may match (and no
// doc line outside a history section), packages, and command-line flags
// each command must refuse.
type deletion struct {
	why      string
	names    string // a regexp over lines
	packages []string
	flags    []probe
}

// A probe runs one of the module's commands and expects it to fail,
// printing want.
type probe struct {
	cmd  string   // a directory under cmd/, and a subcommand if it takes one
	args []string // "$TMP" is a scratch directory, "$FIXTURE" an oracle fixture
	want string
}

// undefined probes cmd with args, whose first must be an undefined flag.
func undefined(cmd string, args ...string) probe {
	return probe{cmd, args, "flag provided but not defined: " + args[0]}
}

var deletions = []deletion{
	{
		why: "No fault injection: a simulated heap cannot fail to map a frame, grant a reserve frame or " +
			"insert a remembered-set entry, so nothing injects such failures and no path exists to absorb them.",
		names:    `FaultHooks|MapGate|TryMap(Frame|Span)|FaultSeed|RemsetOverflow`,
		packages: []string{"internal/resilience"},
	},
	{
		why: "No degradation ladder: an incomplete configuration fails as the paper's do; no emergency " +
			"collection turns X.X into X.X.100 on demand, and no overdraft maps a collection's survivors " +
			"past the heap it is charted at.",
		names: `\bDegrade\b|EvDegrade|DegradeStep|TriggerEmergency|emergencyCollect|rescueAlloc|collectSettled|overdraftLimit|Degradation\b`,
		flags: []probe{undefined("experiments", "-degrade", "-list")},
	},
	{
		why: "A run ends on its own: it finishes, runs out of memory or panics; no cost budget cuts a " +
			"simulated run short and no wall-clock timeout abandons a job.",
		names: `CostBudget|BudgetExceeded|\.Budget\b|engine\.Timeout|Outcome = "(budget|timeout)"|cfg\.Timeout|opts\.Timeout`,
		flags: []probe{
			undefined("experiments", "-budget", "1", "-list"),
			undefined("experiments", "-timeout", "1s", "-list"),
		},
	},
	{
		why: "Every object fits a frame: as in the paper's GCTk there is no large object space; no object " +
			"spans frames, and an access past the end of an object's frame faults. Workloads chunk their " +
			"big arrays instead.",
		names: `LOSThreshold|allocLOS|markLOS|sweepLOS|MapSpan|WithLOS|LOSBytes`,
	},
	{
		why: "One value, one constant: the server SLO bar has one value in every run (server.DefaultSLO), " +
			"and there is no CSV output and no generated regression test beside the fixture that " +
			"TestReproFixtures replays.",
		names: `ServerSLO|DefaultServerSLO|RegressionTestSource|WriteRegressionTest`,
		flags: []probe{
			undefined("experiments", "-csv", "-list"),
			undefined("experiments", "-slo", "x", "-list"),
		},
	},
	{
		why: "One value, one constant: the server's traffic shape is constants in internal/server, the " +
			"frame size and physical memory follow -scale, and the oracle's battery sizes and its shrink " +
			"budget have one value, so no field, flag or parameter offers another.",
		names: `\.(Theta|ValueWordsMin|ValueWordsMax|Batch|BatchGapWork|RequestWork|ScratchWords|HotKeys)\b`,
		flags: []probe{
			undefined("beltway", "-frame", "4", "-scale", "0.05", "-heapMB", "1"),
			undefined("beltway", "-physmem", "0", "-scale", "0.05", "-heapMB", "1"),
			undefined("fuzzcheck", "-configs", "1", "$FIXTURE"),
			undefined("fuzzcheck", "-scale", "1", "$FIXTURE"),
		},
	},
	{
		why: "One controller objective: -adapt takes slo[:targets] only; the throughput objective nearly " +
			"doubled jack's total time and gained no benchmark more than 0.005 s.",
		names: `ObjThroughput|tuneThroughput|GCTarget|ReasonGCOverheadHigh`,
		flags: []probe{{"beltway", []string{"-adapt", "throughput", "-scale", "0.05", "-heapMB", "1"}, `"throughput"`}},
	},
	{
		why: "Fixtures are scripts: no trace-level shrinking, no raw-trace fixture form and no Trace.Slice; " +
			"no run, test or fixture ever reached them, and a workload divergence is recorded again from " +
			"its -seed.",
		names: `MinimizeTrace|TraceMinimizeResult|TraceFailing|DifferentialFails|TraceFixture|TraceB64|trace_b64|` +
			`func \([a-z]+ \*Trace\) Slice\b`,
	},
	{
		why: "A Report carries distributions only: the per-request streams stay in the loops that measured " +
			"them (tests record them through a server.Observer), one function reports a run's lanes, and " +
			"the policy summary carries no constant objective.",
		names: `PhaseLatencies|MergeReports|\bLatencies[[:space:]]+\[\]float64|\.Latencies\b|\bObjective[[:space:]]+string|\.Objective\b`,
	},
	{
		why: "A farm worker ends on its own, as a run does: no per-job deadline, no SIGTERM-grace-SIGKILL " +
			"escalation and no hang crash kind or kill count; a job whose worker crashed is requeued at " +
			"most twice, a constant, so no field or flag sets a retry count.",
		names: `KillGrace|CrashHang|WorkerKills|worker_kills|` +
			`\bDeadline[[:space:]]+time\.Duration|\.Deadline\b|\bRetries[[:space:]]+int|\.Retries\b`,
		flags: []probe{
			undefined("farm run", "-deadline", "1s", "-out", "$TMP"),
			undefined("farm run", "-retries", "0", "-out", "$TMP"),
		},
	},
	{
		why: "One owner per released run: a lane keeps its heap, recorder ring and RNG, a benchmark binding " +
			"its contexts' arenas, a server loop its latency buffer and key permutation; no process-wide list " +
			"holds a part its owner keeps. The heap.FreeLists are the slab lists and the three owners " +
			"(shard.runtimes, harness.benchRuns, harness.serverRuns).",
		names: `takeScaffold|takeRng|takeBuf|latBufs|permBufs|SpareScaffolds|` +
			`heap\.FreeList\[(\*(scaffold|ring|rand\.Rand|arena)|\[\](float64|int))\]`,
	},
}

// deletedNames is the compiled names of every deletion, in order.
var deletedNames = sync.OnceValue(func() []*regexp.Regexp {
	res := make([]*regexp.Regexp, len(deletions))
	for i, d := range deletions {
		res[i] = regexp.MustCompile(d.names)
	}
	return res
})

// matchDeleted returns the rationale of the first deletion whose names
// line matches, or "".
func matchDeleted(line string) string {
	for i, re := range deletedNames() {
		if re.MatchString(line) {
			return deletions[i].why
		}
	}
	return ""
}

func TestDeletedNamesStayDeleted(t *testing.T) {
	ix := moduleIndex(t)
	for _, f := range ix.files {
		if f.test {
			continue
		}
		f.lines(func(n int, line string) {
			if why := matchDeleted(line); why != "" {
				t.Errorf("%s:%d: %s\n\t%s", f.path, n, strings.TrimSpace(line), why)
			}
		})
	}
	for _, d := range deletions {
		for _, p := range d.packages {
			dir := p + "/"
			for _, f := range ix.files {
				if strings.HasPrefix(f.path, dir) {
					t.Errorf("%s: package %s is deleted. %s", f.path, p, d.why)
					break
				}
			}
		}
	}
}

// TestDeletedFlagsStayDeleted builds the commands and runs every probe.
func TestDeletedFlagsStayDeleted(t *testing.T) {
	ix := moduleIndex(t)
	bin := t.TempDir()
	build := exec.Command(goTool(t), "build", "-o", bin+string(filepath.Separator),
		"./cmd/beltway", "./cmd/experiments", "./cmd/farm", "./cmd/fuzzcheck")
	build.Dir = ix.root
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	fixture := filepath.Join(ix.root, "internal", "check", "testdata", "cyclic-xx25.json")
	for _, d := range deletions {
		for _, p := range d.flags {
			name, sub, _ := strings.Cut(p.cmd, " ")
			var args []string
			if sub != "" {
				args = append(args, sub)
			}
			vars := strings.NewReplacer("$TMP", filepath.Join(t.TempDir(), "out"), "$FIXTURE", fixture)
			for _, a := range p.args {
				args = append(args, vars.Replace(a))
			}
			// A probe whose flag came back would run; the timeout ends it.
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			cmd := exec.CommandContext(ctx, filepath.Join(bin, name), args...)
			cmd.Dir = t.TempDir()
			out, err := cmd.CombinedOutput()
			cancel()
			if err == nil || !strings.Contains(string(out), p.want) {
				t.Errorf("%s %s: exit %v, want a failure printing %q:\n%s\n\t%s",
					p.cmd, strings.Join(p.args, " "), err, p.want, firstLines(out, 5), d.why)
			}
		}
	}
}

func firstLines(b []byte, n int) string {
	lines := strings.SplitN(string(b), "\n", n+1)
	if len(lines) > n {
		lines = lines[:n]
	}
	return strings.Join(lines, "\n")
}
