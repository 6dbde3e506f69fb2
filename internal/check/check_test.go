package check

import (
	"math/rand"
	"testing"

	"beltway/internal/core"
	"beltway/internal/gc"
	"beltway/internal/heap"
	"beltway/internal/trace"
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
	// fired replays the script on cfg and counts the collections that
	// began with two nursery increments (only time-to-die opens a second
	// under X.X.100) and those the remset trigger scheduled.
	fired := func(s Script, cfg core.Config) (split, remset int) {
		run := RunScript(s, []core.Config{cfg})
		if run.Failed() {
			t.Fatalf("%s diverges:\n%s", cfg.Name, run.String())
		}
		h, err := core.New(run.Configs[0], heap.NewRegistry())
		if err != nil {
			t.Fatal(err)
		}
		h.SetHooks(gc.Hooks{GCBegin: func(info gc.GCBeginInfo) {
			if h.Belts()[0].Len() == 2 {
				split++
			}
			if info.Trigger == gc.TriggerRemset {
				remset++
			}
		}})
		if err := trace.Replay(run.Trace, vm.New(h)); err != nil {
			t.Fatal(err)
		}
		return split, remset
	}
	for _, seed := range SeedScripts() {
		if split, _ := fired(seed.Script, plain); split != 0 {
			t.Errorf("%s on %s: %d collections with a split nursery; the witness needs it unsplit", seed.Name, plain.Name, split)
		}
		if split, _ := fired(seed.Script, ttd); split == 0 {
			t.Errorf("%s on %s: time-to-die never opened a second nursery increment", seed.Name, ttd.Name)
		}
	}
	rng := rand.New(rand.NewSource(1))
	reached := 0
	const scripts = 60
	for i := 0; i < scripts; i++ {
		raw := make([]byte, 4*(32+rng.Intn(480))) // fuzzcheck's random stage
		rng.Read(raw)
		if _, remset := fired(DecodeScript(raw), remtrig); remset > 0 {
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
	for i := 0; i < 4; i++ {
		c := RandomConfig(rng, 0, 0) // geometry set by RunScript
		base = append(base, c)
	}
	run := RunScript(scripted[0].Script, base)
	if run.Failed() {
		t.Fatalf("seed %s diverges across random configs:\n%s", scripted[0].Name, run.String())
	}
}

// TestTraceSliceIdentity records a seed trace and checks that a Slice
// keeping every op replays cleanly (the handle renumbering reproduces
// replay's own assignment exactly), and that prefix slices replay too.
func TestTraceSliceIdentity(t *testing.T) {
	cfgs, err := PresetConfigs()
	if err != nil {
		t.Fatal(err)
	}
	script := SeedScripts()[3].Script // javac: scopes, keeps, immortal
	run := RunScript(script, cfgs[:1])
	if run.Failed() || run.Trace == nil {
		t.Fatalf("recording failed: %s", run.String())
	}
	tr := run.Trace
	n, err := tr.NumOps()
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("empty trace")
	}
	replayable := func(tt *trace.Trace) error {
		cfg := run.Configs[0]
		h, err := core.New(cfg, heap.NewRegistry())
		if err != nil {
			return err
		}
		m := vm.New(h)
		m.EnableValidation()
		return trace.Replay(tt, m)
	}
	full, err := tr.Slice(func(int) bool { return true })
	if err != nil {
		t.Fatalf("identity slice: %v", err)
	}
	if err := replayable(full); err != nil {
		t.Fatalf("identity slice does not replay: %v", err)
	}
	half, err := tr.Slice(func(i int) bool { return i < n/2 })
	if err != nil {
		t.Fatalf("prefix slice: %v", err)
	}
	if err := replayable(half); err != nil {
		t.Fatalf("prefix slice does not replay: %v", err)
	}
	// Dropping an allocation invalidates later uses of its handle; the
	// slice must either renumber into a clean replay or refuse. Count
	// that at least some single-op drops are accepted (ddmin viability).
	accepted := 0
	for i := 0; i < n && accepted < 3; i++ {
		i := i
		cand, err := tr.Slice(func(j int) bool { return j != i })
		if err != nil {
			continue
		}
		if err := replayable(cand); err == nil {
			accepted++
		}
	}
	if accepted == 0 {
		t.Fatal("no single-op drop produced a replayable trace; ddmin would stall")
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
	res := Minimize(script, cfgs, fail, 0)
	if !fail(res.Script, res.Configs) {
		t.Fatal("minimized result no longer fails the predicate")
	}
	if len(res.Script) != 1 {
		t.Fatalf("expected 1-op script, got %d ops:\n%s", len(res.Script), res.Script)
	}
	if len(res.Configs) != 1 {
		t.Fatalf("expected 1 config, got %d", len(res.Configs))
	}
	if res.Evals <= 0 {
		t.Fatal("no predicate evaluations counted")
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
		t.Run(fx.Name, func(t *testing.T) {
			// The committed fixtures carry a "PretenureBelt" key from when
			// core.Config had that field; encoding/json drops a key it does
			// not know, and everything else must still decode to
			// configurations the collector accepts.
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
		})
	}
}
