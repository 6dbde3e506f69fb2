// Package policy is the online adaptive policy controller: a
// deterministic feedback loop that runs at collection boundaries (and,
// for server workloads, observes phase boundaries) and retunes the
// sizing the paper fixes for the life of a run — a belt's increment
// fraction and its copy-reserve fraction — so that pauses stay under the
// budget a declared latency SLO implies.
//
// The paper's policies are static: "the user" picks X.X at the command
// line and lives with it. This package is the ROADMAP's static→dynamic
// extension of those triggers, with LXR's pause-driven scheduling as the
// modern reference point. Everything is stamped on the cost-unit clock:
// the controller consumes only core.TuneInput (and request observations
// already on that clock), uses no wall-clock time and no randomness, so
// an adaptive run replays bit-identically from its seed, and a run with
// the controller off is bit-identical to a build without it.
package policy

import (
	"fmt"
	"strings"

	"beltway/internal/server"
)

// Config is the controller's objective: the server.SLO whose tail-latency
// targets hold when pause magnitude stays bounded. When a collection's
// pause (observed, or predicted from occupancy and the cost model)
// exceeds the pause budget implied by the SLO's max/p999 bounds, the
// controller grows the nursery toward an Appel-style
// all-of-usable-memory nursery — trading minor collection frequency
// against the premature promotion that inflates full-collection pauses.
// An occupancy guard reverts the growth (once, permanently) if it starts
// to squeeze usable memory.
type Config struct {
	SLO server.SLO
}

// Parse parses an -adapt spec: "slo", optionally followed by ':' and an
// explicit SLO.
//
//	slo                    adapt to server.DefaultSLO
//	slo:p99=1e4,max=5e6    adapt to an explicit SLO (server.ParseSLO syntax)
func Parse(spec string) (Config, error) {
	name, params, _ := strings.Cut(strings.TrimSpace(spec), ":")
	if name != "slo" {
		return Config{}, fmt.Errorf("policy: unknown objective %q (want slo)", name)
	}
	if params == "" {
		return Config{SLO: server.DefaultSLO}, nil
	}
	slo, err := server.ParseSLO(params)
	if err != nil {
		return Config{}, fmt.Errorf("policy: %w", err)
	}
	return Config{SLO: slo}, nil
}

// Reason says why the controller made a decision. The values are the
// EvPolicy wire format (internal/telemetry names them by number), so a
// retired reason's number (4 to 7) is not reused.
type Reason uint8

const (
	ReasonNone Reason = 0
	// ReasonPauseOverBudget: a pause exceeded (or occupancy predicts the
	// next full collection will exceed) the SLO-implied pause budget.
	ReasonPauseOverBudget Reason = 1
	// ReasonOccupancyRevert: live data is squeezing usable memory; undo
	// earlier growth before it turns into an OOM the static config would
	// not have had.
	ReasonOccupancyRevert Reason = 2
	// ReasonPhaseShift marks a server workload phase boundary (no knob).
	ReasonPhaseShift Reason = 3
)

func (r Reason) String() string {
	switch r {
	case ReasonPauseOverBudget:
		return "pause-over-budget"
	case ReasonOccupancyRevert:
		return "occupancy-revert"
	case ReasonPhaseShift:
		return "phase-shift"
	}
	return "none"
}
