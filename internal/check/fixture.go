package check

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"beltway/internal/core"
)

// Fixture is a committed reproducer: a minimized script plus the exact
// configurations that exhibit the divergence. Fixtures replay through
// runConfigured with the stored configurations untouched, so they rerun
// bit-identically.
type Fixture struct {
	Name    string        `json:"name"`
	Note    string        `json:"note,omitempty"`
	Script  Script        `json:"script,omitempty"`
	Configs []core.Config `json:"configs"`
}

// Run replays the fixture and returns the oracle report.
func (fx *Fixture) Run() Report {
	return runConfigured(fx.Script, fx.Configs).Report
}

// ScriptFixture builds a script fixture with the configurations frozen
// at the oracle heap sizing for that script — what RunScript ran them at —
// so the stored configs are complete and self-describing.
func ScriptFixture(name, note string, s Script, cfgs []core.Config) *Fixture {
	return &Fixture{Name: name, Note: note, Script: s,
		Configs: Sized(cfgs, HeapBytesFor(s.AllocBytes()))}
}

// WriteFixture writes the fixture as indented JSON under dir as
// <name>.json, creating dir if needed.
func WriteFixture(fx *Fixture, dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	data, err := json.MarshalIndent(fx, "", "  ")
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, fx.Name+".json")
	return path, os.WriteFile(path, append(data, '\n'), 0o644)
}

// LoadFixture reads one fixture file. A fixture with no script is an
// error: it would replay nothing and pass. Configurations decode
// leniently, so a field a later core.Config no longer has is skipped.
func LoadFixture(path string) (*Fixture, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var fx Fixture
	if err := json.Unmarshal(data, &fx); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(fx.Script) == 0 {
		return nil, fmt.Errorf("%s: fixture has no script", path)
	}
	if fx.Name == "" {
		fx.Name = strings.TrimSuffix(filepath.Base(path), ".json")
	}
	return &fx, nil
}

// LoadFixtures reads every *.json fixture under dir (sorted); a missing
// directory yields an empty list.
func LoadFixtures(dir string) ([]*Fixture, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	var out []*Fixture
	for _, p := range paths {
		fx, err := LoadFixture(p)
		if err != nil {
			return nil, err
		}
		out = append(out, fx)
	}
	return out, nil
}
