package server

import "sort"

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
// flat vs sharded replays must agree on. It round-trips through JSON
// (engine checkpoints) minus the raw latency streams, which exist only
// in-process for exact merging and replay-identity checks.
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

	// PhaseLatencies and Latencies are the raw per-request streams
	// (cost units), per phase and overall. In-process only. They are one
	// buffer: the phases are sub-slices of Latencies, in phase order.
	PhaseLatencies [][]float64 `json:"-"`
	Latencies      []float64   `json:"-"`

	// sorted is each phase's stream in ascending order (sub-slices of a
	// second buffer): what the distributions were read from, kept so that
	// MergeReports merges sorted runs and sorts nothing.
	sorted [][]float64
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

// Report closes the loop's measurement against an SLO. Call after the
// loop is done (a partial loop — one that ran out of memory — reports
// the requests it served).
//
// The raw streams alias the loop's latency buffer; each phase is sorted
// once, in its place in one copy of that buffer, and the overall
// distribution is read off the merge of the sorted phases without being
// written anywhere — two floats a request in all.
func (l *Loop) Report(slo SLO) *Report {
	n, nPhases := len(l.lats), len(l.cfg.Phases)
	rep := &Report{
		Shards:         1,
		StoreChecksum:  l.checksum,
		SLO:            slo,
		PhaseLatencies: make([][]float64, nPhases),
		Latencies:      l.lats[:n:n],
		sorted:         make([][]float64, nPhases),
	}
	sorted := append(make([]float64, 0, n), l.lats...)
	for i, p := range l.cfg.Phases {
		from, to := n, n // a phase the loop never entered
		if i < len(l.starts) {
			from = l.starts[i]
			if i+1 < len(l.starts) {
				to = l.starts[i+1]
			}
			rep.PhaseLatencies[i] = l.lats[from:to:to]
		}
		rep.sorted[i] = sorted[from:to]
		sort.Float64s(rep.sorted[i])
		rep.Phases = append(rep.Phases, phaseReport(p.Name, mergeDist(nil, rep.sorted[i]),
			l.reads[i], l.writes[i], l.paused[i], l.worstInfl[i]))
	}
	rep.close()
	return rep
}

// MergeReports folds per-shard reports (in shard order) into the
// aggregate serving measurement: latency streams concatenate per phase,
// counts sum, distributions are recomputed exactly, and the fingerprint
// folds shard checksums in order. Merging a single report reproduces it.
//
// The lanes' phases arrive sorted (Loop.Report sorted them), so a merged
// phase's distribution is read off their merge as it is written into the
// merged report's own sorted buffer, and the overall one off the merge
// of those: nothing is sorted again, and the merge allocates two floats
// a request, one raw and one sorted.
func MergeReports(reports []*Report, slo SLO) *Report {
	if len(reports) == 0 {
		return &Report{SLO: slo, Passed: true}
	}
	if len(reports) == 1 {
		r := *reports[0]
		r.SLO = slo
		r.Verdicts = slo.Evaluate(&r.Overall.Latency)
		r.Passed = r.Violations() == 0
		return &r
	}
	nPhases := len(reports[0].Phases)
	total := 0
	for _, r := range reports {
		total += len(r.Latencies)
	}
	out := &Report{
		SLO:            slo,
		StoreChecksum:  reports[0].StoreChecksum,
		PhaseLatencies: make([][]float64, nPhases),
		Latencies:      make([]float64, 0, total),
		sorted:         make([][]float64, nPhases),
	}
	for i, r := range reports {
		out.Shards += r.Shards
		if i > 0 {
			out.StoreChecksum = out.StoreChecksum*1099511628211 ^ r.StoreChecksum
		}
	}
	sorted := make([]float64, total)
	runs := make([][]float64, len(reports))
	for p := 0; p < nPhases; p++ {
		from := len(out.Latencies)
		var reads, writes, paused int
		var worst float64
		for i, r := range reports {
			out.Latencies = append(out.Latencies, r.PhaseLatencies[p]...)
			runs[i] = r.sorted[p]
			reads += r.Phases[p].Reads
			writes += r.Phases[p].Writes
			paused += r.Phases[p].PausedRequests
			if w := r.Phases[p].WorstInflation; w > worst {
				worst = w
			}
		}
		to := len(out.Latencies)
		out.PhaseLatencies[p] = out.Latencies[from:to:to]
		out.sorted[p] = sorted[from:to]
		out.Phases = append(out.Phases, phaseReport(reports[0].Phases[p].Name,
			mergeDist(out.sorted[p], runs...), reads, writes, paused, worst))
	}
	out.close()
	return out
}

// close fills the overall row from the phase rows and the sorted phases,
// and judges it against the SLO.
func (r *Report) close() {
	o := &r.Overall
	*o = PhaseReport{Name: "overall", Latency: mergeDist(nil, r.sorted...)}
	for _, p := range r.Phases {
		o.Reads += p.Reads
		o.Writes += p.Writes
		o.PausedRequests += p.PausedRequests
		if p.WorstInflation > o.WorstInflation {
			o.WorstInflation = p.WorstInflation
		}
	}
	finishPhase(o)
	r.Verdicts = r.SLO.Evaluate(&o.Latency)
	r.Passed = r.Violations() == 0
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
