// Command fuzzcheck drives the differential oracle from the command
// line: it replays the six bundled workloads (recorded as traces at
// small scale) through every named collector preset, then runs randomized
// script rounds with randomized configurations mixed into the battery,
// and reports any divergence. With -minimize, each divergence is shrunk
// by delta debugging and written to the check package's testdata as a
// reproducer fixture, which the package's TestReproFixtures replays.
//
// It also reproduces Go fuzz corpus entries: pass corpus file paths (the
// files `go test -fuzz=FuzzDifferential` leaves under testdata/fuzz or
// the fuzz cache) as arguments.
//
//	fuzzcheck -rounds 200 -seed 1
//	fuzzcheck -minimize testdata/fuzz/FuzzDifferential/<entry>
//
// Exit status is 1 when any divergence was found.
package main

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"

	"beltway/internal/check"
	"beltway/internal/core"
	"beltway/internal/workload"
)

func main() {
	var (
		rounds   = flag.Int("rounds", 50, "randomized script rounds after the workload stage")
		seed     = flag.Int64("seed", 1, "PRNG seed for scripts and random configurations")
		minimize = flag.Bool("minimize", false, "shrink each divergence and write a reproducer fixture")
		outDir   = flag.String("out", "internal/check", "check package directory; fixtures go to its testdata")
	)
	flag.Parse()

	presets, err := check.PresetConfigs()
	if err != nil {
		fatal(err)
	}
	failures := 0

	for _, path := range flag.Args() {
		failures += reproduceCorpusFile(path, presets, *minimize, *outDir)
	}
	if flag.NArg() > 0 {
		os.Exit(exitCode(failures))
	}

	failures += workloadStage(presets, *seed, *minimize, *outDir)
	failures += randomStage(presets, *rounds, *seed, *minimize, *outDir)

	if failures == 0 {
		fmt.Printf("fuzzcheck: no divergences (%d presets, %d workloads, %d random rounds)\n",
			len(presets), len(workload.All()), *rounds)
	} else {
		fmt.Printf("fuzzcheck: %d divergent inputs\n", failures)
	}
	os.Exit(exitCode(failures))
}

func exitCode(failures int) int {
	if failures > 0 {
		return 1
	}
	return 0
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "fuzzcheck:", err)
	os.Exit(2)
}

// The battery's sizes: the trace stage records every benchmark at
// traceScale, and each random round adds randomConfigs rolled
// configurations to the presets.
const (
	traceScale    = 0.02
	randomConfigs = 3
)

// workloadStage records each bundled benchmark at small scale and replays
// the trace through every preset, sized so completion is
// configuration-independent.
func workloadStage(presets []core.Config, seed int64, minimize bool, outDir string) int {
	failures := 0
	recCfg := check.Sized(presets[:1], 64<<20)[0] // semi-space, roomy: the recording must complete
	for _, b := range workload.All() {
		tr, err := check.RecordWorkload(b, traceScale, seed, recCfg)
		if err != nil {
			fatal(fmt.Errorf("recording %s: %w", b.Name, err))
		}
		alloc, err := tr.AllocBytes()
		if err != nil {
			fatal(err)
		}
		cfgs := check.Sized(presets, check.HeapBytesFor(alloc))
		rep := check.Differential(tr, cfgs)
		n, _ := tr.NumOps()
		if !rep.Failed() {
			fmt.Printf("workload %-10s %6d ops, %2d presets: ok\n", b.Name, n, len(cfgs))
			continue
		}
		failures++
		fmt.Printf("workload %-10s %6d ops: DIVERGES\n%s", b.Name, n, rep.String())
		if minimize {
			res := check.MinimizeTrace(tr, cfgs, check.DifferentialFails)
			fmt.Printf("  minimized to %d ops, %d configs (%d evals)\n", res.Ops, len(res.Configs), res.Evals)
			fx, err := check.TraceFixture("workload-"+b.Name, "workload "+b.Name+" divergence", res.Trace, res.Configs)
			if err != nil {
				fatal(err)
			}
			writeFixture(fx, outDir)
		}
	}
	return failures
}

// randomStage fuzzes at the driver level: random scripts against the
// preset battery plus freshly randomized configurations.
func randomStage(presets []core.Config, rounds int, seed int64, minimize bool, outDir string) int {
	failures := 0
	rng := rand.New(rand.NewSource(seed))
	for round := 0; round < rounds; round++ {
		script := check.RandomScript(rng)
		cfgs := append([]core.Config(nil), presets...)
		heapBytes := check.HeapBytesFor(script.AllocBytes())
		for i := 0; i < randomConfigs; i++ {
			cfgs = append(cfgs, check.RandomConfig(rng, heapBytes, check.OracleFrameBytes))
		}
		run := check.RunScript(script, cfgs)
		if !run.Failed() {
			continue
		}
		failures++
		fmt.Printf("round %d (%d ops): DIVERGES\n%s", round, len(script), run.String())
		if minimize {
			minimizeScript(script, cfgs, outDir)
		}
	}
	return failures
}

// reproduceCorpusFile replays one Go fuzz corpus entry (or a raw script
// byte file, or a fixture JSON) and optionally minimizes it.
func reproduceCorpusFile(path string, presets []core.Config, minimize bool, outDir string) int {
	if strings.HasSuffix(path, ".json") {
		fx, err := check.LoadFixture(path)
		if err != nil {
			fatal(err)
		}
		rep := fx.Run()
		if !rep.Failed() {
			fmt.Printf("%s: ok\n", path)
			return 0
		}
		fmt.Printf("%s: DIVERGES\n%s", path, rep.String())
		return 1
	}
	data, err := os.ReadFile(path)
	if err != nil {
		fatal(err)
	}
	raw, cfgSeed, err := parseCorpusEntry(data)
	if err != nil {
		// Not a corpus entry: treat the bytes as a raw script encoding.
		raw, cfgSeed = data, 1
	}
	script := check.DecodeScript(raw)
	cfgs := []core.Config{presets[0], presets[1]}
	rng := rand.New(rand.NewSource(cfgSeed))
	heapBytes := check.HeapBytesFor(script.AllocBytes())
	for i := 0; i < 2; i++ {
		cfgs = append(cfgs, check.RandomConfig(rng, heapBytes, check.OracleFrameBytes))
	}
	run := check.RunScript(script, cfgs)
	if !run.Failed() {
		fmt.Printf("%s: ok (%d ops)\n", path, len(script))
		return 0
	}
	fmt.Printf("%s: DIVERGES (%d ops)\n%s", path, len(script), run.String())
	if minimize {
		minimizeScript(script, cfgs, outDir)
	}
	return 1
}

func minimizeScript(script check.Script, cfgs []core.Config, outDir string) {
	res := check.Minimize(script, cfgs, check.OracleFails)
	fmt.Printf("  minimized to %d ops, %d configs (%d evals):\n%s",
		len(res.Script), len(res.Configs), res.Evals, res.Script)
	name := fmt.Sprintf("fuzzcheck-%x", sha256.Sum256(res.Script.Encode()))[:17]
	fx := check.ScriptFixture(name, "minimized by cmd/fuzzcheck", res.Script, res.Configs)
	writeFixture(fx, outDir)
}

func writeFixture(fx *check.Fixture, outDir string) {
	path, err := check.WriteFixture(fx, outDir+"/testdata")
	if err != nil {
		fatal(err)
	}
	fmt.Printf("  wrote %s\n", path)
}

// parseCorpusEntry decodes the two-argument "go test fuzz v1" corpus
// format used by FuzzDifferential: a []byte line and an int64 line.
func parseCorpusEntry(data []byte) ([]byte, int64, error) {
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) < 2 || strings.TrimSpace(lines[0]) != "go test fuzz v1" {
		return nil, 0, fmt.Errorf("not a go fuzz corpus entry")
	}
	var raw []byte
	var cfgSeed int64 = 1
	for _, line := range lines[1:] {
		line = strings.TrimSpace(line)
		switch {
		case strings.HasPrefix(line, "[]byte("):
			q := strings.TrimSuffix(strings.TrimPrefix(line, "[]byte("), ")")
			s, err := strconv.Unquote(q)
			if err != nil {
				return nil, 0, fmt.Errorf("bad []byte literal: %w", err)
			}
			raw = []byte(s)
		case strings.HasPrefix(line, "int64("):
			q := strings.TrimSuffix(strings.TrimPrefix(line, "int64("), ")")
			n, err := strconv.ParseInt(q, 10, 64)
			if err != nil {
				return nil, 0, fmt.Errorf("bad int64 literal: %w", err)
			}
			cfgSeed = n
		}
	}
	if raw == nil {
		return nil, 0, fmt.Errorf("corpus entry has no []byte argument")
	}
	return raw, cfgSeed, nil
}
