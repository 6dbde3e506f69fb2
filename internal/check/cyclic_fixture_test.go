package check

import (
	"path/filepath"
	"testing"
)

// TestCyclicFixtureXXFailsXX100Completes pins both outcomes of the
// committed demonstration fixture, the paper's completeness claim: the
// incomplete X.X must OOM on the cross-increment cyclic garbage (if it
// stops OOMing, the fixture no longer demonstrates anything and needs
// retuning), and the complete X.X.100 at the same heap must finish.
func TestCyclicFixtureXXFailsXX100Completes(t *testing.T) {
	fx, err := LoadFixture(filepath.Join("testdata", "cyclic-xx25.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(fx.Configs) != 2 || len(fx.Configs[0].Belts) != 2 || len(fx.Configs[1].Belts) != 3 {
		t.Fatalf("fixture configs are not [X.X, X.X.100]: %+v", fx.Configs)
	}

	xx := run(fx.Configs[0], execute(fx.Script))
	if xx.Err != "" {
		t.Fatalf("%s failed outright: %s", fx.Configs[0].Name, xx.Err)
	}
	if !xx.OOM {
		t.Errorf("%s completed: the fixture no longer demonstrates incompleteness", fx.Configs[0].Name)
	}

	xx100 := run(fx.Configs[1], execute(fx.Script))
	if xx100.Err != "" {
		t.Fatalf("%s failed: %s", fx.Configs[1].Name, xx100.Err)
	}
	if xx100.OOM {
		t.Errorf("%s OOMed: the complete configuration no longer reclaims the ring", fx.Configs[1].Name)
	}
}

// TestCyclicFixtureMatchesGenerator keeps the committed script in sync
// with its generator, so retuning edits can't silently fork the two.
func TestCyclicFixtureMatchesGenerator(t *testing.T) {
	fx, err := LoadFixture(filepath.Join("testdata", "cyclic-xx25.json"))
	if err != nil {
		t.Fatal(err)
	}
	want := CyclicGarbageScript()
	if len(fx.Script) != len(want) {
		t.Fatalf("fixture script has %d ops, generator %d", len(fx.Script), len(want))
	}
	for i := range want {
		if fx.Script[i] != want[i] {
			t.Fatalf("op %d: fixture %+v, generator %+v", i, fx.Script[i], want[i])
		}
	}
}
