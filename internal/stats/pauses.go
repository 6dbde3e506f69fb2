package stats

import (
	"math"
	"sort"
)

// PauseStats summarizes a run's pause-time distribution — the simple
// responsiveness measures (§4.3 notes their limits, which is why the
// suite also computes MMU curves; both views are useful).
type PauseStats struct {
	Count  int
	Total  float64 // sum of pauses, cost units
	Mean   float64
	Median float64
	P90    float64
	P95    float64
	P99    float64
	Max    float64
}

// SummarizePauses computes the distribution of the given pauses.
func SummarizePauses(pauses []Pause) PauseStats {
	s := PauseStats{Count: len(pauses)}
	if len(pauses) == 0 {
		return s
	}
	ds := make([]float64, len(pauses))
	for i, p := range pauses {
		ds[i] = p.Duration()
		s.Total += ds[i]
	}
	sort.Float64s(ds)
	s.Mean = s.Total / float64(len(ds))
	s.Median = NearestRank(ds, 0.5)
	s.P90 = NearestRank(ds, 0.9)
	s.P95 = NearestRank(ds, 0.95)
	s.P99 = NearestRank(ds, 0.99)
	s.Max = ds[len(ds)-1]
	return s
}

// NearestRank returns the q-quantile of the ascending-sorted sample xs by
// the nearest-rank definition: the smallest element whose cumulative
// frequency is at least q, i.e. xs[ceil(q*n)-1], clamped to the sample.
// This is the one quantile definition shared by every exact quantile in
// the suite (pause summaries here, request-latency SLO verdicts in
// internal/server), so small-sample percentiles agree across tables.
func NearestRank(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return xs[Rank(len(xs), q)]
}

// Rank is the index NearestRank reads in an ascending sample of n > 0
// elements, for a consumer that meets the sample in order without
// holding it as one slice (internal/server reads a run's overall
// quantiles off the merge of its sorted phases).
func Rank(n int, q float64) int {
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}
