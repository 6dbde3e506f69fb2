package collectors

import (
	"reflect"
	"strings"
	"testing"

	"beltway/internal/core"
	"beltway/internal/heap"
)

func opts() Options {
	return Options{HeapBytes: 1 << 20, FrameBytes: 8192}
}

func TestParseNamedForms(t *testing.T) {
	cases := []struct {
		spec  string
		name  string
		belts int
	}{
		{"ss", "BSS", 1},
		{"bss", "BSS", 1},
		{"semispace", "BSS", 1},
		{"appel", "Appel", 2},
		{"appel3", "Appel-3gen", 3},
		{"ba2", "Beltway 100.100", 2},
		{"fixed:25", "Fixed 25", 2},
		{"bofm:30", "BOFM 30", 1},
		{"bof:10", "BOF 10", 2},
		{"25.25", "Beltway 25.25", 2},
		{"25.50", "Beltway 25.50", 2},
		{"25.25.100", "Beltway 25.25.100", 3},
		{"10.20.100", "Beltway 10.20.100", 3},
		{"100.100", "Beltway 100.100", 2},
		{" 33.33.100 ", "Beltway 33.33.100", 3},
	}
	for _, c := range cases {
		cfg, err := Parse(c.spec, opts())
		if err != nil {
			t.Errorf("Parse(%q): %v", c.spec, err)
			continue
		}
		if cfg.Name != c.name {
			t.Errorf("Parse(%q).Name = %q, want %q", c.spec, cfg.Name, c.name)
		}
		if len(cfg.Belts) != c.belts {
			t.Errorf("Parse(%q) has %d belts, want %d", c.spec, len(cfg.Belts), c.belts)
		}
		if err := cfg.Validate(); err != nil {
			t.Errorf("Parse(%q) invalid: %v", c.spec, err)
		}
	}
}

func TestParseRejectsGarbage(t *testing.T) {
	for _, bad := range []string{
		"", "nope", "25", "25.25.50", "0.25", "25.0", "101.101",
		"fixed:", "fixed:0", "fixed:200", "bof:x", "25.25.100.100",
	} {
		if _, err := Parse(bad, opts()); err == nil {
			t.Errorf("Parse(%q) accepted", bad)
		}
	}
}

func TestParsedConfigsInstantiate(t *testing.T) {
	for _, spec := range []string{"ss", "appel", "fixed:25", "bofm:25", "bof:25",
		"25.25", "25.25.100", "10.10.100", "ba2", "appel3", "40.60"} {
		cfg, err := Parse(spec, opts())
		if err != nil {
			t.Fatalf("Parse(%q): %v", spec, err)
		}
		if _, err := core.New(cfg, heap.NewRegistry()); err != nil {
			t.Errorf("core.New(Parse(%q)): %v", spec, err)
		}
	}
}

func TestPresetStructure(t *testing.T) {
	o := opts()
	if cfg := BSS(o); len(cfg.Belts) != 1 || cfg.Belts[0].PromoteTo != 0 {
		t.Error("BSS must be one self-promoting belt")
	}
	if cfg := XX(25, o); cfg.Belts[0].MaxIncrements != 1 {
		t.Error("XX nursery must be a single bounded increment (nursery trigger)")
	}
	if cfg := XX100(25, o); cfg.Belts[2].IncrementFrac < 1 || cfg.Belts[2].PromoteTo != 2 {
		t.Error("XX100 third belt must be unbounded and self-promoting")
	}
	if cfg := BOF(25, o); !cfg.OlderFirst {
		t.Error("BOF must set OlderFirst")
	}
	if cfg := BA2(o); cfg.Belts[0].IncrementFrac < 1 {
		t.Error("BA2 nursery must be unbounded (grows into all usable memory)")
	}
	if cfg := XY(25, 50, o); cfg.Belts[0].IncrementFrac != 0.25 || cfg.Belts[1].IncrementFrac != 0.50 {
		t.Error("XY increment fractions wrong")
	}
	// All Beltway presets use the frame barrier and dynamic reserve.
	for _, cfg := range []core.Config{BSS(o), BA2(o), XX(25, o), XX100(25, o), BOF(25, o), BOFM(25, o)} {
		if cfg.Barrier != core.FrameBarrier {
			t.Errorf("%s: not using the frame barrier", cfg.Name)
		}
		if cfg.FixedHalfReserve {
			t.Errorf("%s: Beltway preset must use the dynamic reserve", cfg.Name)
		}
	}
}

// specFromName recovers a Parse spec from a configuration's display
// name: the inverse of the naming conventions the presets use ("Beltway "
// prefix, "Fixed 25"-style spacing, the "+cards" suffix spelled as the
// "cards:" prefix on the command line).
func specFromName(name string) string {
	s := strings.ToLower(strings.TrimSpace(name))
	prefix := ""
	if rest, ok := strings.CutSuffix(s, "+cards"); ok {
		prefix, s = "cards:", rest
	}
	s = strings.TrimPrefix(s, "beltway ")
	s = strings.Replace(s, "appel-3gen", "appel3", 1)
	s = strings.ReplaceAll(s, " ", ":")
	return prefix + s
}

func TestParseNameRoundTrip(t *testing.T) {
	// Every preset's display name, run back through specFromName and
	// Parse, must reproduce the configuration exactly (command-line
	// ergonomics: the name a tool prints is a spec a user can type).
	o := opts()
	presets := []core.Config{
		BSS(o), BA2(o), BOFM(20, o), BOF(25, o),
		XX(25, o), XX100(25, o), XXMOS(25, o), XY(25, 50, o),
		Appel(o), Appel3(o), Fixed(40, o),
		Immix(o),
	}
	// Card-marking variants (MOS and mark-region require remsets; the
	// older-first and boundary-barrier presets take cards like any other).
	for _, cfg := range []core.Config{
		BSS(o), BA2(o), BOFM(20, o), BOF(25, o),
		XX(25, o), XX100(25, o), XY(25, 50, o), Appel(o),
	} {
		presets = append(presets, WithCardBarrier(cfg))
	}
	// Mark-region variants (excluded: older-first, MOS, cards — the
	// engine forbids those combinations, see core.Config.Validate).
	for _, cfg := range []core.Config{
		BSS(o), BA2(o), BOFM(20, o),
		XX(25, o), XX100(25, o), XY(25, 50, o),
		Appel(o), Appel3(o), Fixed(40, o),
	} {
		presets = append(presets, WithMarkRegion(cfg))
	}
	seen := make(map[string]bool)
	for _, cfg := range presets {
		if seen[cfg.Name] {
			t.Errorf("duplicate preset name %q", cfg.Name)
		}
		seen[cfg.Name] = true
		spec := specFromName(cfg.Name)
		cfg2, err := Parse(spec, o)
		if err != nil {
			t.Errorf("re-parsing %q (name %q): %v", spec, cfg.Name, err)
			continue
		}
		if !reflect.DeepEqual(cfg, cfg2) {
			t.Errorf("round trip of %q via %q changed the config:\n got %+v\nwant %+v",
				cfg.Name, spec, cfg2, cfg)
		}
	}
}

func TestParseExtensionForms(t *testing.T) {
	cfg, err := Parse("25.25.mos", opts())
	if err != nil {
		t.Fatal(err)
	}
	if !cfg.MOS || len(cfg.Belts) != 3 {
		t.Errorf("MOS form parsed wrong: %+v", cfg)
	}
	cfg, err = Parse("cards:25.25.100", opts())
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Barrier != core.CardBarrier {
		t.Error("cards: prefix did not switch the barrier")
	}
	if _, err := Parse("cards:bogus", opts()); err == nil {
		t.Error("cards:bogus accepted")
	}
	if _, err := Parse("25.30.mos", opts()); err == nil {
		t.Error("asymmetric MOS form accepted")
	}
}
