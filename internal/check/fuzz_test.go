package check

import "testing"

// FuzzDifferential is the oracle under fuzz: arbitrary bytes decode to a
// script (the decoder is total), the script records one trace, and the
// trace replays through FuzzBattery — two fixed anchors plus
// configurations drawn from the fuzz input's config seed — with full
// shadow-graph validation. Any divergence fails.
// To reproduce and shrink a finding outside the fuzz driver:
//
//	go run ./cmd/fuzzcheck -minimize <corpus-file>
func FuzzDifferential(f *testing.F) {
	for _, seed := range SeedScripts() {
		f.Add(seed.Script.Encode(), int64(1))
		f.Add(seed.Script.Encode(), int64(42))
	}
	presets, err := PresetConfigs()
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte, cfgSeed int64) {
		script := DecodeScript(data)
		if len(script) == 0 {
			return
		}
		cfgs := FuzzBattery(presets, script, cfgSeed)
		run := RunScript(script, cfgs)
		if run.Failed() {
			t.Fatalf("divergence on %d-op script (config seed %d):\n%s\nscript:\n%s",
				len(script), cfgSeed, run.String(), script)
		}
	})
}
