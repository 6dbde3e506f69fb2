package check

import "testing"

// TestChaosSeedScriptsAllPresets is the chaos battery at test scale:
// every seed script, every preset, three fault schedules. The resilience
// layer must absorb every injected fault without changing any
// mutator-observable result.
func TestChaosSeedScriptsAllPresets(t *testing.T) {
	cfgs, err := PresetConfigs()
	if err != nil {
		t.Fatal(err)
	}
	rounds, fired := 0, 0
	for _, seed := range SeedScripts() {
		run := RunScriptChaos(seed.Name, seed.Script, cfgs, 1, 3)
		if run.Failed() {
			t.Errorf("chaos divergence on %s:\n%s", seed.Name, run.String())
		}
		rounds += run.Rounds
		fired += run.TotalFired
	}
	if rounds < 200 {
		t.Errorf("battery executed %d fault rounds, want >= 200", rounds)
	}
	if fired == 0 {
		t.Error("no injected fault ever fired; the battery tested nothing")
	}
	t.Logf("chaos: %d rounds, %d faults fired", rounds, fired)
}

// TestChaosDeterministic: the battery is a pure function of (script,
// configs, seed, schedules) — same inputs, same fault count, same
// verdict. This is what makes a chaos failure reproducible from its
// logged seed.
func TestChaosDeterministic(t *testing.T) {
	cfgs, err := PresetConfigs()
	if err != nil {
		t.Fatal(err)
	}
	seed := SeedScripts()[2] // db
	a := RunScriptChaos(seed.Name, seed.Script, cfgs, 7, 2)
	b := RunScriptChaos(seed.Name, seed.Script, cfgs, 7, 2)
	if a.Rounds != b.Rounds || a.TotalFired != b.TotalFired || len(a.Divergences) != len(b.Divergences) {
		t.Errorf("chaos not deterministic: %+v vs %+v", a, b)
	}
}
