package experiments

import (
	"fmt"

	"beltway/internal/harness"
	"beltway/internal/server"
)

// adaptServerObjective is the -exp adapt controller objective, run on
// the server family at the scorecard heap (3x live): the configuration
// where results/experiments_server.txt shows Fixed 25 failing its max
// bound statically.
const adaptServerObjective = "slo"

// FigureAdapt reports the adaptive policy controller (internal/policy)
// against the static presets it retunes: each configuration of the
// server panel runs twice — once exactly as the paper's static preset,
// once with the controller — and the table shows both measurements side
// by side with the controller's decision count and net knob drift. The
// controller only moves knobs the paper itself exposes as command-line
// options, so every adaptive row is a configuration the static system
// could have been started with; the delta is choosing it online.
//
// This experiment is an extension (the 2002 paper has no feedback
// controller); it is reachable by id ("-exp adapt") but stays out of
// "-exp all", whose output must not depend on this machinery existing.
func (s *Suite) FigureAdapt() ([]harness.Table, error) {
	staticEnv := s.opts.Env
	staticEnv.Policy = ""
	serverEnv := s.opts.Env
	serverEnv.Policy = adaptServerObjective

	work, sc := s.serverWorkload()
	cols := s.serverCollectors()
	frame := s.opts.Env.FrameBytes
	hb := int(float64(sc.EstLiveBytes()) * serverScorecardFactor)
	hb = (hb/frame + 1) * frame

	var specs []harness.RunSpec
	for _, col := range cols {
		specs = append(specs,
			col.Spec("adapt-server-static", work, hb, staticEnv),
			col.Spec("adapt-server-dyn", work, hb, serverEnv))
	}
	decoded, err := s.exec.RunAll(specs)
	if err != nil {
		return nil, err
	}
	srv := harness.Table{
		Title: fmt.Sprintf("Adaptive policy: server at %.1fx live heap, static vs -adapt %s (SLO %s)",
			serverScorecardFactor, adaptServerObjective, server.DefaultSLO),
		Headers: []string{"Collector", "SLO static", "SLO adaptive",
			"max(us) static", "max(us) adaptive", "GC% st/ad", "decisions", "knob-drift"},
	}
	for ci, col := range cols {
		st, ad := decoded[2*ci], decoded[2*ci+1]
		srv.AddRow(col.Name,
			serverSLOCell(st), serverSLOCell(ad),
			serverMaxCell(st), serverMaxCell(ad),
			serverGCCell(st)+"/"+serverGCCell(ad),
			policyDecisionsCell(ad), policyDriftCell(ad))
	}
	return []harness.Table{srv}, nil
}

func serverSLOCell(r *harness.Result) string {
	if r.Incomplete() || r.Server == nil {
		return incompleteCell(r)
	}
	return sloCell(r.Server)
}

func serverMaxCell(r *harness.Result) string {
	if r.Incomplete() || r.Server == nil {
		return "-"
	}
	return harness.FmtUs(r.Server.Overall.Latency.Max)
}

func serverGCCell(r *harness.Result) string {
	if r.Incomplete() {
		return "-"
	}
	return fmt.Sprintf("%.1f", 100*r.GCFraction())
}

func policyDecisionsCell(r *harness.Result) string {
	if r.Policy == nil {
		return "-"
	}
	return fmt.Sprintf("%d", r.Policy.Decisions)
}

func policyDriftCell(r *harness.Result) string {
	if r.Policy == nil || r.Policy.Drift == "" {
		return "-"
	}
	return r.Policy.Drift
}
