package check

import (
	"path/filepath"
	"testing"
)

// TestDegradeCyclicFixture pins both outcomes of the committed
// demonstration fixture: the plain incomplete configuration must still
// OOM on the cross-increment cyclic garbage (if it stops OOMing, the
// fixture no longer demonstrates anything and needs retuning), and the
// identical configuration with the degradation ladder must complete.
func TestDegradeCyclicFixture(t *testing.T) {
	fx, err := LoadFixture(filepath.Join("testdata", "degrade-cyclic-xx25.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(fx.Configs) != 2 {
		t.Fatalf("fixture has %d configs, want [plain, degraded]", len(fx.Configs))
	}
	if fx.Configs[0].Degrade || !fx.Configs[1].Degrade {
		t.Fatalf("config Degrade flags = %v/%v, want false/true",
			fx.Configs[0].Degrade, fx.Configs[1].Degrade)
	}

	plain := run(fx.Configs[0], execute(fx.Script))
	if plain.Err != "" {
		t.Fatalf("plain run failed outright: %s", plain.Err)
	}
	if !plain.OOM {
		t.Error("plain X.X completed: the fixture no longer demonstrates incompleteness")
	}

	deg := run(fx.Configs[1], execute(fx.Script))
	if deg.Err != "" {
		t.Fatalf("degraded run failed: %s", deg.Err)
	}
	if deg.OOM {
		t.Error("degraded run OOMed: the emergency-collection ladder no longer rescues it")
	}
}

// TestDegradeCyclicFixtureMatchesGenerator keeps the committed script in
// sync with its generator, so retuning edits can't silently fork the two.
func TestDegradeCyclicFixtureMatchesGenerator(t *testing.T) {
	fx, err := LoadFixture(filepath.Join("testdata", "degrade-cyclic-xx25.json"))
	if err != nil {
		t.Fatal(err)
	}
	want := DegradeCyclicScript()
	if len(fx.Script) != len(want) {
		t.Fatalf("fixture script has %d ops, generator %d", len(fx.Script), len(want))
	}
	for i := range want {
		if fx.Script[i] != want[i] {
			t.Fatalf("op %d: fixture %+v, generator %+v", i, fx.Script[i], want[i])
		}
	}
}
