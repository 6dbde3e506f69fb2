package server

import "slices"

// PhaseReport is one phase's (or the whole run's) latency measurement.
type PhaseReport struct {
	Name     string `json:"name"`
	Requests int    `json:"requests"`
	Reads    int    `json:"reads"`
	Writes   int    `json:"writes"`
	// Latency is the exact latency distribution, in cost units.
	Latency Dist `json:"latency"`
	// PausedRequests counts requests whose interval overlapped a GC
	// pause; PausedFrac is their share of the phase.
	PausedRequests int     `json:"paused_requests"`
	PausedFrac     float64 `json:"paused_frac"`
	// WorstInflation is the worst ratio of a request's latency to its
	// GC-free portion (1 when no request was paused) — how much slower
	// the single unluckiest request ran because of the collector.
	WorstInflation float64 `json:"worst_inflation"`
}

// Report is a server run's measurement: per-phase and overall latency
// distributions, the SLO verdicts, and the live-store fingerprint that
// flat vs sharded replays must agree on. It carries distributions only
// and round-trips through JSON (engine checkpoints); the per-request
// streams stay in the loops that measured them, and a caller that wants
// them records them through an Observer.
type Report struct {
	Phases  []PhaseReport `json:"phases"`
	Overall PhaseReport   `json:"overall"`
	// SLO and Verdicts record the declared objectives and their
	// evaluation against the overall distribution; Passed is the
	// conjunction (vacuously true with no targets).
	SLO      SLO       `json:"slo"`
	Verdicts []Verdict `json:"verdicts,omitempty"`
	Passed   bool      `json:"passed"`
	// StoreChecksum fingerprints the live store contents after the last
	// request (shard checksums folded in shard order when Shards > 1).
	StoreChecksum uint64 `json:"store_checksum"`
	// Shards is the serving-lane count (1 for a flat run).
	Shards int `json:"shards"`
}

// Violations counts failed SLO targets.
func (r *Report) Violations() int {
	n := 0
	for _, v := range r.Verdicts {
		if !v.Pass {
			n++
		}
	}
	return n
}

// Report closes the loop's measurement against an SLO: ReportLoops of
// this one loop.
func (l *Loop) Report(slo SLO) *Report {
	return ReportLoops([]*Loop{l}, slo)
}

// ReportLoops closes a run's measurement against an SLO: the loops are
// its lanes, in lane order (one for a flat run), and each must be done
// or cut short (a loop that ran out of memory reports the requests it
// served), and not yet released. Counts sum, the fingerprint folds the
// lanes' checksums in order, and every distribution is exact.
//
// Each phase is sorted once, in place in its loop's latency buffer (so
// reporting again gives the same report), and every distribution is read
// off the merge of sorted phases without being written anywhere: a
// phase's off its lanes' phases, the overall one off all of them. The
// report allocates nothing that grows with the request count.
func ReportLoops(loops []*Loop, slo SLO) *Report {
	nPhases := len(loops[0].cfg.Phases)
	rep := &Report{SLO: slo, Shards: len(loops), StoreChecksum: loops[0].checksum}
	for _, l := range loops[1:] {
		rep.StoreChecksum = rep.StoreChecksum*1099511628211 ^ l.checksum
	}
	// runs is mergeDist's input, which it consumes: one lane's phase at a
	// time for the phase rows, then every phase of every lane.
	runs := make([][]float64, len(loops)*nPhases)
	rep.Phases = make([]PhaseReport, nPhases)
	for p := range rep.Phases {
		var reads, writes, paused int
		var worst float64
		for i, l := range loops {
			runs[i] = l.phaseLats(p)
			slices.Sort(runs[i])
			reads += l.reads[p]
			writes += l.writes[p]
			paused += l.paused[p]
			worst = max(worst, l.worstInfl[p])
		}
		rep.Phases[p] = phaseReport(loops[0].cfg.Phases[p].Name, mergeDist(runs[:len(loops)]...),
			reads, writes, paused, worst)
	}
	for i, l := range loops {
		for p := 0; p < nPhases; p++ {
			runs[i*nPhases+p] = l.phaseLats(p)
		}
	}
	o := &rep.Overall
	*o = PhaseReport{Name: "overall", Latency: mergeDist(runs...)}
	for _, p := range rep.Phases {
		o.Reads += p.Reads
		o.Writes += p.Writes
		o.PausedRequests += p.PausedRequests
		o.WorstInflation = max(o.WorstInflation, p.WorstInflation)
	}
	finishPhase(o)
	rep.Verdicts = slo.Evaluate(&o.Latency)
	rep.Passed = rep.Violations() == 0
	return rep
}

// phaseLats is phase i's stream in the loop's latency buffer: empty for
// a phase the loop never entered.
func (l *Loop) phaseLats(i int) []float64 {
	if i >= len(l.starts) {
		return nil
	}
	to := len(l.lats)
	if i+1 < len(l.starts) {
		to = l.starts[i+1]
	}
	return l.lats[l.starts[i]:to]
}

func phaseReport(name string, lat Dist, reads, writes, paused int, worst float64) PhaseReport {
	p := PhaseReport{
		Name:           name,
		Reads:          reads,
		Writes:         writes,
		PausedRequests: paused,
		WorstInflation: worst,
		Latency:        lat,
	}
	finishPhase(&p)
	return p
}

// finishPhase derives what a row's counts and distribution imply.
func finishPhase(p *PhaseReport) {
	p.Requests = p.Latency.Count
	if p.WorstInflation == 0 {
		p.WorstInflation = 1
	}
	p.PausedFrac = frac(p.PausedRequests, p.Requests)
}

func frac(n, d int) float64 {
	if d == 0 {
		return 0
	}
	return float64(n) / float64(d)
}
