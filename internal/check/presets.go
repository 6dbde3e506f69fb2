package check

import (
	"beltway/internal/collectors"
	"beltway/internal/core"
)

// PresetSpecs are the named collector spellings the oracle batteries
// replay against: every preset family in internal/collectors — the
// semi-space and Appel baselines, fixed nursery, older-first, two- and
// three-belt Beltway in aligned and mixed sizes, MOS, card marking, and
// the mark-region substrate (mature-belt hybrid and all-mark-region
// Immix).
var PresetSpecs = []string{
	"ss", "appel", "appel3", "ba2", "fixed:40",
	"bofm:20", "bof:25",
	"25.25", "30.60", "25.25.100", "40.40.mos",
	"cards:25.25",
	"25.25-mr", "25.25.100-mr", "immix",
}

// PresetConfigs parses the full preset battery and appends the two
// large-object configurations — 25.25.100 and appel with every object
// over half a frame in the large object space, one remembered-set and one
// boot-scanning barrier — which have no spelling of their own (half of
// the frame the oracle simulates with). Heap geometry is left zero; the
// oracle's sizing policy (RunScript) or the caller fills it.
func PresetConfigs() ([]core.Config, error) {
	specs := append(PresetSpecs[:len(PresetSpecs):len(PresetSpecs)], "25.25.100", "appel")
	cfgs := make([]core.Config, 0, len(specs))
	for i, spec := range specs {
		cfg, err := collectors.Parse(spec, collectors.Options{})
		if err != nil {
			return nil, err
		}
		if i >= len(PresetSpecs) {
			cfg.Name += "+los"
			cfg.LOSThresholdBytes = OracleFrameBytes / 2
		}
		cfgs = append(cfgs, cfg)
	}
	return cfgs, nil
}
