package server

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
	// (cost units), per phase and overall. In-process only.
	PhaseLatencies [][]float64 `json:"-"`
	Latencies      []float64   `json:"-"`
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
// loop is done (a partial loop — OOM, budget abort — reports the
// requests it served).
func (l *Loop) Report(slo SLO) *Report {
	rep := &Report{
		Shards:         1,
		StoreChecksum:  l.checksum,
		SLO:            slo,
		PhaseLatencies: make([][]float64, len(l.cfg.Phases)),
		Latencies:      make([]float64, 0, l.done),
	}
	for i, p := range l.cfg.Phases {
		rep.PhaseLatencies[i] = l.lats[i]
		rep.Latencies = append(rep.Latencies, l.lats[i]...)
		rep.Phases = append(rep.Phases, phaseReport(p.Name, l.lats[i],
			l.reads[i], l.writes[i], l.paused[i], l.worstInfl[i]))
	}
	o := &rep.Overall
	*o = phaseReport("overall", rep.Latencies, 0, 0, 0, 0)
	for _, p := range rep.Phases {
		o.Reads += p.Reads
		o.Writes += p.Writes
		o.PausedRequests += p.PausedRequests
		if p.WorstInflation > o.WorstInflation {
			o.WorstInflation = p.WorstInflation
		}
	}
	finishPhase(o)
	rep.Verdicts = slo.Evaluate(&o.Latency)
	rep.Passed = rep.Violations() == 0
	return rep
}

// MergeReports folds per-shard reports (in shard order) into the
// aggregate serving measurement: latency streams concatenate per phase,
// counts sum, distributions are recomputed exactly, and the fingerprint
// folds shard checksums in order. Merging a single report reproduces it.
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
	out := &Report{
		Shards:         0,
		SLO:            slo,
		PhaseLatencies: make([][]float64, nPhases),
	}
	out.StoreChecksum = reports[0].StoreChecksum
	for i, r := range reports {
		out.Shards += r.Shards
		if i > 0 {
			out.StoreChecksum = out.StoreChecksum*1099511628211 ^ r.StoreChecksum
		}
	}
	total := 0
	for _, r := range reports {
		total += len(r.Latencies)
	}
	out.Latencies = make([]float64, 0, total)
	for p := 0; p < nPhases; p++ {
		merged := PhaseReport{Name: reports[0].Phases[p].Name}
		n := 0
		for _, r := range reports {
			n += len(r.PhaseLatencies[p])
		}
		out.PhaseLatencies[p] = make([]float64, 0, n)
		for _, r := range reports {
			out.PhaseLatencies[p] = append(out.PhaseLatencies[p], r.PhaseLatencies[p]...)
			merged.Reads += r.Phases[p].Reads
			merged.Writes += r.Phases[p].Writes
			merged.PausedRequests += r.Phases[p].PausedRequests
			if r.Phases[p].WorstInflation > merged.WorstInflation {
				merged.WorstInflation = r.Phases[p].WorstInflation
			}
		}
		merged.Latency = *Summarize(out.PhaseLatencies[p])
		merged.Requests = merged.Latency.Count
		merged.PausedFrac = frac(merged.PausedRequests, merged.Requests)
		out.Phases = append(out.Phases, merged)
		out.Latencies = append(out.Latencies, out.PhaseLatencies[p]...)
	}
	o := &out.Overall
	o.Name = "overall"
	for _, p := range out.Phases {
		o.Reads += p.Reads
		o.Writes += p.Writes
		o.PausedRequests += p.PausedRequests
		if p.WorstInflation > o.WorstInflation {
			o.WorstInflation = p.WorstInflation
		}
	}
	o.Latency = *Summarize(out.Latencies)
	o.Requests = o.Latency.Count
	o.PausedFrac = frac(o.PausedRequests, o.Requests)
	out.Verdicts = slo.Evaluate(&o.Latency)
	out.Passed = out.Violations() == 0
	return out
}

func phaseReport(name string, lats []float64, reads, writes, paused int, worst float64) PhaseReport {
	p := PhaseReport{
		Name:           name,
		Reads:          reads,
		Writes:         writes,
		PausedRequests: paused,
		WorstInflation: worst,
		Latency:        *Summarize(lats),
	}
	p.Requests = p.Latency.Count
	finishPhase(&p)
	return p
}

func finishPhase(p *PhaseReport) {
	if p.Requests == 0 {
		p.Requests = p.Latency.Count
	}
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
