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

// PresetConfigs parses the full preset battery and appends four
// configurations that have no spelling of their own. Two put every object
// over half a frame (of the frame the oracle simulates with) in the large
// object space — 25.25.100 and appel, one remembered-set and one
// boot-scanning barrier. Two set the paper's other collection triggers
// (§3.3.3) on 25.25.100, at values the oracle's scripts reach in the heap
// its sizing policy gives them (HeapBytesFor: 3x the script's allocation
// plus 64 frames): a time-to-die window of those 64 frames, which every
// seed script enters, and a remembered-set trigger of more than one
// entry, which the throttled poll (once per 64 allocations) finds in
// about one random script in six. TestTriggerPresetsFire holds both to
// that. Heap geometry is left zero; the oracle's sizing policy
// (RunScript) or the caller fills it.
func PresetConfigs() ([]core.Config, error) {
	specs := append(PresetSpecs[:len(PresetSpecs):len(PresetSpecs)], "25.25.100", "appel", "25.25.100", "25.25.100")
	cfgs := make([]core.Config, 0, len(specs))
	for i, spec := range specs {
		cfg, err := collectors.Parse(spec, collectors.Options{})
		if err != nil {
			return nil, err
		}
		switch i - len(PresetSpecs) {
		case 0, 1:
			cfg.Name += "+los"
			cfg.LOSThresholdBytes = OracleFrameBytes / 2
		case 2:
			cfg.Name += "+ttd"
			cfg.TTDBytes = 64 * OracleFrameBytes
		case 3:
			cfg.Name += "+remtrig"
			cfg.RemsetThreshold = 1
		}
		cfgs = append(cfgs, cfg)
	}
	return cfgs, nil
}
