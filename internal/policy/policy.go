// Package policy is the online adaptive policy controller: a
// deterministic feedback loop that runs at collection boundaries (and,
// for server workloads, observes phase boundaries) and retunes the
// sizing the paper fixes for the life of a run — a belt's increment
// fraction and its copy-reserve fraction — toward a declared objective.
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
	"math"
	"strconv"
	"strings"

	"beltway/internal/server"
)

// Objective names what the controller optimizes for.
type Objective uint8

const (
	ObjNone Objective = iota
	// ObjSLO bounds pause magnitude so a server.SLO's tail-latency
	// targets hold: when a collection's pause (observed, or predicted
	// from occupancy and the cost model) exceeds the pause budget implied
	// by the SLO's max/p999 bounds, the controller grows the nursery
	// toward an Appel-style all-of-usable-memory nursery — trading minor
	// collection frequency against the premature promotion that inflates
	// full-collection pauses. An occupancy guard reverts the growth (once,
	// permanently) if it starts to squeeze usable memory.
	ObjSLO
	// ObjThroughput keeps the GC share of total time under a target by
	// growing bounded increments (fewer, larger collections amortize
	// per-collection setup), with the same occupancy guard and revert as
	// ObjSLO.
	ObjThroughput
)

func (o Objective) String() string {
	switch o {
	case ObjSLO:
		return "slo"
	case ObjThroughput:
		return "throughput"
	}
	return "none"
}

// DefaultSLO is the SLO assumed by "slo" with no explicit spec — the
// server experiment family's default (cost units; see
// internal/experiments).
const DefaultSLO = "p99=10000,p999=1000000,max=5000000"

// Config declares the controller's objective and its parameters.
type Config struct {
	Objective Objective

	// SLO is the objective of ObjSLO.
	SLO server.SLO

	// GCTarget is ObjThroughput's tolerated GC fraction of total time.
	GCTarget float64
}

// Parse parses an -adapt objective spec: an objective name optionally
// followed by ':' and comma-separated parameters.
//
//	slo                    adapt to the default server SLO
//	slo:p99=1e4,max=5e6    adapt to an explicit SLO (server.ParseSLO syntax)
//	throughput             target=0.15
//	throughput:target=0.1
func Parse(spec string) (Config, error) {
	name, params, _ := strings.Cut(strings.TrimSpace(spec), ":")
	c := Config{}
	switch name {
	case "slo":
		c.Objective = ObjSLO
		if params == "" {
			params = DefaultSLO
		}
		slo, err := server.ParseSLO(params)
		if err != nil {
			return Config{}, fmt.Errorf("policy: %w", err)
		}
		c.SLO = slo
		return c, nil
	case "throughput":
		c.Objective = ObjThroughput
		c.GCTarget = 0.15
		return c, parseParams(params, map[string]*float64{"target": &c.GCTarget})
	}
	return Config{}, fmt.Errorf("policy: unknown objective %q (want slo or throughput)", name)
}

// parseParams fills key=value parameters into the given destinations,
// rejecting unknown keys and non-finite or non-positive values.
func parseParams(params string, dst map[string]*float64) error {
	if strings.TrimSpace(params) == "" {
		return nil
	}
	for _, part := range strings.Split(params, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return fmt.Errorf("policy: bad parameter %q (want key=value)", part)
		}
		p, exists := dst[strings.TrimSpace(k)]
		if !exists {
			return fmt.Errorf("policy: unknown parameter %q", k)
		}
		f, err := strconv.ParseFloat(strings.TrimSpace(v), 64)
		if err != nil || f <= 0 || math.IsNaN(f) || math.IsInf(f, 0) {
			return fmt.Errorf("policy: bad value %q for %q (want a finite positive number)", v, k)
		}
		*p = f
	}
	return nil
}

// Reason says why the controller made a decision. The values are the
// EvPolicy wire format (internal/telemetry names them by number), so a
// retired reason's number is not reused.
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
	// ReasonGCOverheadHigh: GC share of total time exceeded the target.
	ReasonGCOverheadHigh Reason = 7
)

func (r Reason) String() string {
	switch r {
	case ReasonPauseOverBudget:
		return "pause-over-budget"
	case ReasonOccupancyRevert:
		return "occupancy-revert"
	case ReasonPhaseShift:
		return "phase-shift"
	case ReasonGCOverheadHigh:
		return "gc-overhead-high"
	}
	return "none"
}
