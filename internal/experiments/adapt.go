package experiments

import (
	"fmt"

	"beltway/internal/harness"
)

// Parameters of the self-tuning sweep ("-exp adapt"): the synthetics run
// a mid-pressure heap (1.5x min, where static Beltway 25.25 pays real GC
// overhead) under the throughput objective; the server family runs the
// scorecard heap (3x live) under the SLO objective, the configuration
// where results/experiments_server.txt shows Fixed 25 failing its max
// bound statically.
const (
	adaptSynthFactor     = 1.5
	adaptSynthObjective  = "throughput"
	adaptServerObjective = "slo"
)

// FigureAdapt reports the adaptive policy controller (internal/policy)
// against the static presets it retunes: each configuration runs twice —
// once exactly as the paper's static preset, once with the controller —
// and the tables show both measurements side by side with the
// controller's decision count and net knob drift. The controller only
// moves knobs the paper itself exposes as command-line options, so every
// adaptive row is a configuration the static system could have been
// started with; the delta is choosing it online.
//
// This experiment is an extension (the 2002 paper has no feedback
// controller); it is reachable by id ("-exp adapt") but stays out of
// "-exp all", whose output must not depend on this machinery existing.
func (s *Suite) FigureAdapt() ([]harness.Table, error) {
	staticEnv := s.opts.Env
	staticEnv.Policy = ""
	synthEnv := s.opts.Env
	synthEnv.Policy = adaptSynthObjective

	// Synthetics: Beltway 25.25 at 1.5x min heap, throughput objective.
	mins, err := s.MinHeaps()
	if err != nil {
		return nil, err
	}
	col := s.xx(25)
	frame := s.opts.Env.FrameBytes
	var specs []harness.RunSpec
	for _, b := range s.opts.Benchmarks {
		hb := int(float64(mins[b.Name]) * adaptSynthFactor)
		hb = (hb/frame + 1) * frame
		specs = append(specs,
			col.Spec("adapt-static", harness.Bench(b), hb, staticEnv),
			col.Spec("adapt-dyn", harness.Bench(b), hb, synthEnv))
	}
	results, err := s.exec.RunAll(specs)
	if err != nil {
		return nil, err
	}
	synth := harness.Table{
		Title: fmt.Sprintf("Adaptive policy: %s at %.1fx min heap, static vs -adapt %s",
			col.Name, adaptSynthFactor, adaptSynthObjective),
		Headers: []string{"Benchmark", "Heap (MB)", "GC% static", "GC% adaptive",
			"total(s) static", "total(s) adaptive", "GCs st/ad", "decisions", "knob-drift"},
	}
	for i := 0; i < len(results); i += 2 {
		st, ad := results[i], results[i+1]
		bench := s.opts.Benchmarks[i/2]
		if st.Incomplete() || ad.Incomplete() {
			synth.AddRow(bench.Name, harness.FmtMB(st.HeapBytes),
				incompleteCell(st), incompleteCell(ad), "-", "-", "-", "-", "-")
			continue
		}
		synth.AddRow(bench.Name, harness.FmtMB(st.HeapBytes),
			fmt.Sprintf("%.1f", 100*st.GCFraction()),
			fmt.Sprintf("%.1f", 100*ad.GCFraction()),
			harness.FmtSec(st.TotalTime), harness.FmtSec(ad.TotalTime),
			fmt.Sprintf("%d/%d", st.Collections, ad.Collections),
			policyDecisionsCell(ad), policyDriftCell(ad))
	}

	// Server family: the preset panel at the scorecard heap, SLO objective.
	work, sc, slo, err := s.serverWorkload()
	if err != nil {
		return nil, err
	}
	serverEnv := s.opts.Env
	serverEnv.Policy = adaptServerObjective
	cols := s.serverCollectors()
	hb := int(float64(sc.EstLiveBytes()) * serverScorecardFactor)
	hb = (hb/frame + 1) * frame

	var srvSpecs []harness.RunSpec
	for _, col := range cols {
		srvSpecs = append(srvSpecs,
			col.Spec("adapt-server-static", work, hb, staticEnv),
			col.Spec("adapt-server-dyn", work, hb, serverEnv))
	}
	decoded, err := s.exec.RunAll(srvSpecs)
	if err != nil {
		return nil, err
	}
	srv := harness.Table{
		Title: fmt.Sprintf("Adaptive policy: server at %.1fx live heap, static vs -adapt %s (SLO %s)",
			serverScorecardFactor, adaptServerObjective, slo),
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
	return []harness.Table{synth, srv}, nil
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
