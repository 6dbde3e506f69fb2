package check

import (
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"beltway/internal/core"
	"beltway/internal/gc"
	"beltway/internal/vm"
)

func TestScriptEncodeDecodeRoundTrip(t *testing.T) {
	for _, seed := range SeedScripts() {
		got := DecodeScript(seed.Script.Encode())
		if len(got) != len(seed.Script) {
			t.Fatalf("%s: round trip length %d != %d", seed.Name, len(got), len(seed.Script))
		}
		for i := range got {
			if got[i] != seed.Script[i] {
				t.Fatalf("%s: op %d: %+v != %+v", seed.Name, i, got[i], seed.Script[i])
			}
		}
	}
}

func TestSeedOracleAcrossPresets(t *testing.T) {
	cfgs, err := PresetConfigs()
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range SeedScripts() {
		seed := seed
		t.Run(seed.Name, func(t *testing.T) {
			t.Parallel()
			run := RunScript(seed.Script, cfgs)
			if run.Failed() {
				t.Fatalf("seed %s diverges across presets:\n%s", seed.Name, run.String())
			}
			for _, o := range run.Outcomes {
				if o.OOM {
					t.Fatalf("seed %s: %s OOMs under the oracle sizing policy", seed.Name, o.Name)
				}
			}
		})
	}
}

// reach is how often a run got to what the two trigger knobs exist for.
type reach struct {
	split  int // collections that began with two nursery increments
	remset int // collections the remembered-set trigger scheduled
}

// fired executes the script on cfg, sized as every battery sizes it, and
// reports what the run reached.
func fired(t *testing.T, s Script, cfg core.Config) reach {
	t.Helper()
	var r reach
	cfg = Sized([]core.Config{cfg}, HeapBytesFor(s.AllocBytes()))[0]
	out := run(cfg, func(m *vm.Mutator) error {
		h := m.C.(*core.Heap)
		h.SetHooks(h.Hooks().Merge(gc.Hooks{GCBegin: func(info gc.GCBeginInfo) {
			if h.Belts()[0].Len() == 2 {
				r.split++
			}
			if info.Trigger == gc.TriggerRemset {
				r.remset++
			}
		}}))
		err := execute(s)(m)
		return err
	})
	if out.Err != "" || out.OOM {
		t.Fatalf("%s: OOM=%v %s", cfg.Name, out.OOM, out.Err)
	}
	return r
}

// TestTriggerPresetsFire holds the two trigger presets to what they are
// enrolled for: in the heap the oracle sizes, time-to-die opens its second
// nursery increment on every seed script, and the remembered-set trigger
// schedules collections on a fair share of random ones. A preset whose
// trigger the scripts never reach replays 25.25.100 under another name.
func TestTriggerPresetsFire(t *testing.T) {
	cfgs, err := PresetConfigs()
	if err != nil {
		t.Fatal(err)
	}
	plain, ttd, remtrig := cfgs[9], cfgs[len(cfgs)-2], cfgs[len(cfgs)-1]
	if plain.Name+"+ttd" != ttd.Name || plain.Name+"+remtrig" != remtrig.Name {
		t.Fatalf("battery order changed: %q, %q, %q", plain.Name, ttd.Name, remtrig.Name)
	}
	// Only time-to-die opens a second nursery increment under X.X.100.
	for _, seed := range SeedScripts() {
		if r := fired(t, seed.Script, plain); r.split != 0 {
			t.Errorf("%s on %s: %d collections with a split nursery; the witness needs it unsplit", seed.Name, plain.Name, r.split)
		}
		if r := fired(t, seed.Script, ttd); r.split == 0 {
			t.Errorf("%s on %s: time-to-die never opened a second nursery increment", seed.Name, ttd.Name)
		}
	}
	rng := rand.New(rand.NewSource(1))
	reached := 0
	const scripts = 60
	for i := 0; i < scripts; i++ {
		if r := fired(t, RandomScript(rng), remtrig); r.remset > 0 {
			reached++
		}
	}
	t.Logf("the remset trigger fired in %d of %d random scripts", reached, scripts)
	if reached < scripts/12 {
		t.Errorf("the remset trigger fired in %d of %d random scripts on %s, want at least %d",
			reached, scripts, remtrig.Name, scripts/12)
	}
}

func TestSeedOracleAcrossRandomConfigs(t *testing.T) {
	scripted := SeedScripts()
	base := []core.Config{{}} // filled below
	cfgs, err := PresetConfigs()
	if err != nil {
		t.Fatal(err)
	}
	base[0] = cfgs[0] // the semi-space reference
	rng := rand.New(rand.NewSource(7))
	heapBytes := HeapBytesFor(scripted[0].Script.AllocBytes())
	for i := 0; i < 4; i++ {
		base = append(base, RandomConfig(rng, heapBytes, OracleFrameBytes))
	}
	run := RunScript(scripted[0].Script, base)
	if run.Failed() {
		t.Fatalf("seed %s diverges across random configs:\n%s", scripted[0].Name, run.String())
	}
}

func TestMinimizeShrinksSyntheticFailure(t *testing.T) {
	// A synthetic predicate: "fails" iff the script still contains an
	// OpCollectFull and at least 2 configs remain. Minimize must reduce
	// to essentially that op alone and a small config set, without ever
	// returning a passing result.
	script := SeedScripts()[2].Script // db: ends with a full collect
	cfgs, err := PresetConfigs()
	if err != nil {
		t.Fatal(err)
	}
	fail := func(s Script, cs []core.Config) bool {
		if len(cs) < 1 {
			return false
		}
		for _, op := range s {
			if op.Kind == OpCollectFull {
				return true
			}
		}
		return false
	}
	res := Minimize(script, cfgs, fail)
	if !fail(res.Script, res.Configs) {
		t.Fatal("minimized result no longer fails the predicate")
	}
	if len(res.Script) != 1 {
		t.Fatalf("expected 1-op script, got %d ops:\n%s", len(res.Script), res.Script)
	}
	if len(res.Configs) != 1 {
		t.Fatalf("expected 1 config, got %d", len(res.Configs))
	}
	// Deterministic: the evaluations the loop spends on this input say
	// which candidates it tries, and in which order.
	if res.Evals != 7 {
		t.Fatalf("minimizing took %d predicate evaluations, want 7", res.Evals)
	}
}

// TestReproFixtures replays every committed reproducer in testdata; each
// one documents a bug fixed in this tree, so each must now pass.
func TestReproFixtures(t *testing.T) {
	fixtures, err := LoadFixtures("testdata")
	if err != nil {
		t.Fatal(err)
	}
	if len(fixtures) == 0 {
		t.Skip("no fixtures committed")
	}
	for _, fx := range fixtures {
		fx := fx
		t.Run(fx.Name, func(t *testing.T) { replayFixture(t, fx) })
	}
}

// TestRepro_fuzzcheck_880c6bc and TestRepro_fuzzcheck_dcbb971 keep each
// committed reproducer runnable by its own name, as `go test -run` selects
// it; TestReproFixtures covers any fixture added later.
func TestRepro_fuzzcheck_880c6bc(t *testing.T) { replayFixtureFile(t, "fuzzcheck-880c6bc.json") }

func TestRepro_fuzzcheck_dcbb971(t *testing.T) { replayFixtureFile(t, "fuzzcheck-dcbb971.json") }

func replayFixtureFile(t *testing.T, name string) {
	t.Helper()
	fx, err := LoadFixture(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	replayFixture(t, fx)
}

// replayFixture checks that fx still decodes to configurations the
// collector accepts and that its script no longer diverges.
func replayFixture(t *testing.T, fx *Fixture) {
	t.Helper()
	// The committed fixtures carry "PretenureBelt" and "Degrade" keys from
	// when core.Config had those fields; encoding/json drops a key it does
	// not know, and everything else must still decode to configurations
	// the collector accepts.
	if len(fx.Configs) == 0 {
		t.Fatal("fixture decoded to no configurations")
	}
	for _, cfg := range fx.Configs {
		if err := cfg.Validate(); err != nil {
			t.Fatalf("fixture configuration %q no longer decodes to a valid one: %v", cfg.Name, err)
		}
	}
	rep := fx.Run()
	if rep.Failed() {
		t.Fatalf("fixture %s diverges again:\n%s", fx.Name, rep.String())
	}
}

// TestLoadFixtureRefusesNoScript: a fixture with no script would replay
// nothing and pass, so loading one is an error that names its file. That
// covers a fixture in the retired raw-trace form, whose "trace_b64" key
// encoding/json drops without a word.
func TestLoadFixtureRefusesNoScript(t *testing.T) {
	dir := t.TempDir()
	for name, body := range map[string]string{
		"trace-only.json": `{"name": "trace-only", "trace_b64": "AgEAAQ==", "configs": [{"Name": "ss"}]}`,
		"no-script.json":  `{"name": "no-script", "configs": [{"Name": "ss"}]}`,
	} {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadFixture(path); err == nil || !strings.Contains(err.Error(), path) {
			t.Errorf("LoadFixture(%s) = %v; want an error naming the file", name, err)
		}
	}
	if _, err := LoadFixtures(dir); err == nil {
		t.Error("LoadFixtures loaded a directory of fixtures with no script")
	}
}

// TestRandomConfigRollsFire holds RandomConfig's two trigger rolls to
// reaching the collector under the oracle, drawn as fuzzcheck's random
// stage draws them (one script, then three configurations given that
// script's heap). A roll nothing reaches tests nothing: rolled over a
// zero geometry, as every caller once passed, the time-to-die window was
// 0 and the remembered-set threshold, at 200 and up, was beyond any
// script.
//
// Measured at seed 1 over 100 rounds (300 configurations; seeds 2 to 6
// read alike): time-to-die opened a second increment of a one-increment
// nursery in 24 of the 29 configurations that can witness it (25 to 30
// at the other seeds), and the remembered-set trigger scheduled a
// collection in 5 of 78 (3 to 5 at the other seeds). The test asks for
// about half of that.
func TestRandomConfigRollsFire(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var ttd, remtrig [2]int // configurations the roll fired in, of those that rolled it
	count := func(n *[2]int, rolled, fired bool) {
		if rolled {
			n[1]++
			if fired {
				n[0]++
			}
		}
	}
	const rounds = 100
	for round := 0; round < rounds; round++ {
		script := RandomScript(rng)
		heapBytes := HeapBytesFor(script.AllocBytes())
		for i := 0; i < 3; i++ {
			cfg := RandomConfig(rng, heapBytes, OracleFrameBytes)
			r := fired(t, script, cfg)
			// Under a nursery held to one increment only time-to-die
			// opens a second.
			count(&ttd, cfg.TTDBytes > 0 && cfg.Belts[0].MaxIncrements == 1, r.split > 0)
			count(&remtrig, cfg.RemsetThreshold > 0, r.remset > 0)
		}
	}
	t.Logf("of %d configurations: time-to-die fired in %d of %d, the remset trigger in %d of %d",
		3*rounds, ttd[0], ttd[1], remtrig[0], remtrig[1])
	if ttd[0] < 10 || remtrig[0] < 2 {
		t.Errorf("a roll reaches too little: time-to-die %d, remset trigger %d configurations, want 10 and 2",
			ttd[0], remtrig[0])
	}
}
