package server

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"beltway/internal/stats"
)

// SLO is a set of latency objectives, each bounding one quantile of the
// per-request latency distribution in cost units. The zero value demands
// nothing and always passes.
type SLO struct {
	Targets []Target `json:"targets,omitempty"`
}

// DefaultSLO is the one pass/fail bar of the server experiment and of
// the "slo" policy objective: the p99 request must stay under 10k cost
// units (~13.6us nominal — a pause-free request), the p99.9 under 1M
// (~1.4ms: a request may absorb a nursery pause but not a mature
// collection), and no request may exceed 5M (~6.8ms). Calibrated at
// scale 1 so the bar discriminates: incremental collectors (Beltway)
// pass, collectors that park a long mature/full collection under a
// request (Fixed nursery at tight heaps, Immix at 2x live) fail on max
// or p99.9.
const DefaultSLO = "p99=10e3,p99.9=1e6,max=5e6"

// Target is one objective: the named quantile must not exceed Cost.
type Target struct {
	Quantile string  `json:"quantile"` // p50 | p95 | p99 | p999 | max
	Cost     float64 `json:"cost"`     // bound, in cost units
}

// quantileValue maps a target name to its value in a latency
// distribution. Returns ok=false for unknown names.
func quantileValue(name string, d *Dist) (float64, bool) {
	switch name {
	case "p50":
		return d.P50, true
	case "p95":
		return d.P95, true
	case "p99":
		return d.P99, true
	case "p999":
		return d.P999, true
	case "max":
		return d.Max, true
	}
	return 0, false
}

// ParseSLO parses a declaration like "p99=500000" or
// "p95=200000,p999=2000000". Quantile names are p50, p95, p99, p999
// (p99.9 is accepted as an alias) and max; bounds are finite positive
// cost-unit counts, and each quantile may be bounded at most once.
func ParseSLO(s string) (SLO, error) {
	var slo SLO
	s = strings.TrimSpace(s)
	if s == "" {
		return slo, nil
	}
	seen := make(map[string]bool)
	for _, part := range strings.Split(s, ",") {
		name, val, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return SLO{}, fmt.Errorf("server: bad SLO term %q (want quantile=cost)", part)
		}
		name = strings.TrimSpace(name)
		if name == "p99.9" {
			name = "p999"
		}
		switch name {
		case "p50", "p95", "p99", "p999", "max":
		default:
			return SLO{}, fmt.Errorf("server: unknown SLO quantile %q (want p50, p95, p99, p999 or max)", name)
		}
		if seen[name] {
			return SLO{}, fmt.Errorf("server: duplicate SLO quantile %q", name)
		}
		seen[name] = true
		// ParseFloat happily returns NaN and ±Inf; neither is a usable
		// bound (NaN fails every comparison, +Inf passes everything), so
		// reject non-finite values explicitly — `c <= 0` alone lets both
		// through.
		c, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
		if err != nil || c <= 0 || math.IsNaN(c) || math.IsInf(c, 0) {
			return SLO{}, fmt.Errorf("server: bad SLO bound %q (want a finite positive cost-unit count)", val)
		}
		slo.Targets = append(slo.Targets, Target{Quantile: name, Cost: c})
	}
	return slo, nil
}

// String renders the SLO back in the -slo flag syntax.
func (s SLO) String() string {
	parts := make([]string, len(s.Targets))
	for i, t := range s.Targets {
		parts[i] = fmt.Sprintf("%s=%g", t.Quantile, t.Cost)
	}
	return strings.Join(parts, ",")
}

// Verdict is the evaluation of one SLO target against a run.
type Verdict struct {
	Target Target  `json:"target"`
	Actual float64 `json:"actual"` // measured quantile, cost units
	Pass   bool    `json:"pass"`
}

// Evaluate checks every target against a latency distribution. The
// returned slice parallels s.Targets.
func (s SLO) Evaluate(d *Dist) []Verdict {
	out := make([]Verdict, len(s.Targets))
	for i, t := range s.Targets {
		v, _ := quantileValue(t.Quantile, d)
		out[i] = Verdict{Target: t, Actual: v, Pass: v <= t.Cost}
	}
	return out
}

// Dist summarizes a latency sample set with the exact (sorted,
// nearest-rank) quantiles the SLO layer verdicts against. Exactness
// matters here: telemetry's log-bucketed histograms bound quantile error
// to the bucket ratio (see internal/telemetry), which is fine for
// dashboards but not for pass/fail decisions.
type Dist struct {
	Count int     `json:"count"`
	P50   float64 `json:"p50"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
	P999  float64 `json:"p999"`
	Max   float64 `json:"max"`
	Mean  float64 `json:"mean"`
}

// Summarize computes the exact distribution of a latency sample set.
// The input is not modified.
func Summarize(latencies []float64) *Dist {
	sorted := append([]float64(nil), latencies...)
	sort.Float64s(sorted)
	d := mergeDist(nil, sorted)
	return &d
}

// mergeDist summarises the ascending merge of runs, each ascending, and
// writes the merge into dst (which must hold it exactly) unless dst is
// nil. The ascending order of a multiset of latencies is one sequence of
// values whichever way it was reached — they are differences of clock
// readings: no NaN, no negative zero — so the quantiles, and the mean
// summed along it, have the bits a sort of the concatenation would give.
func mergeDist(dst []float64, runs ...[]float64) Dist {
	n := 0
	for _, r := range runs {
		n += len(r)
	}
	d := Dist{Count: n}
	if n == 0 {
		return d
	}
	// stats.Rank is the one exact-quantile definition shared with
	// stats.SummarizePauses, so request-latency and pause quantiles agree
	// on small samples.
	quantiles := [...]struct {
		rank int
		v    *float64
	}{
		{stats.Rank(n, 0.50), &d.P50}, {stats.Rank(n, 0.95), &d.P95},
		{stats.Rank(n, 0.99), &d.P99}, {stats.Rank(n, 0.999), &d.P999},
		{n - 1, &d.Max},
	}
	heads := append([][]float64(nil), runs...)
	var sum float64
	for i := 0; i < n; {
		// The run with the least head gives the merge all it has up to
		// the least head among the others: with a few hundred distinct
		// latencies in a run of thousands, and with one run, that is a
		// long stretch per look at the heads.
		least, bound := -1, math.Inf(1)
		for j, h := range heads {
			switch {
			case len(h) == 0:
			case least < 0 || h[0] < heads[least][0]:
				if least >= 0 {
					bound = heads[least][0]
				}
				least = j
			case h[0] < bound:
				bound = h[0]
			}
		}
		h, k := heads[least], 0
		for k < len(h) && h[k] <= bound {
			sum += h[k]
			k++
		}
		if dst != nil {
			copy(dst[i:], h[:k])
		}
		for _, q := range quantiles {
			if i <= q.rank && q.rank < i+k {
				*q.v = h[q.rank-i]
			}
		}
		heads[least] = h[k:]
		i += k
	}
	d.Mean = sum / float64(n)
	return d
}
