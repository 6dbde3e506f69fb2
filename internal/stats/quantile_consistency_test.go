// Cross-package quantile consistency: the simulator has exactly one
// quantile definition — stats.NearestRank — and two consumers
// (stats.SummarizePauses for pause tables and -metrics-out,
// server.Summarize for SLO verdicts). This test feeds both the same
// samples and pins them to byte-equal answers, so the
// quantile-definition drift fixed in this package (floor-index vs
// nearest-rank) cannot silently reappear in one consumer.
package stats_test

import (
	"sort"
	"testing"

	"beltway/internal/server"
	"beltway/internal/stats"
)

// samples builds a deterministic latency/pause-shaped distribution with
// a heavy far tail, where floor-index and nearest-rank disagree.
func samples(n int) []float64 {
	out := make([]float64, 0, n)
	state := uint64(0x243F6A8885A308D3)
	for i := 0; i < n; i++ {
		state = state*6364136223846793005 + 1442695040888963407
		u := float64(state>>11) / (1 << 53)
		switch {
		case u < 0.9:
			out = append(out, 100+u*900)
		case u < 0.99:
			out = append(out, 5000+u*20000)
		default:
			out = append(out, 1e6+u*3e6)
		}
	}
	return out
}

func TestQuantileConsistencyAcrossPackages(t *testing.T) {
	for _, n := range []int{1, 2, 9, 10, 100, 4999} {
		xs := samples(n)
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)

		// server.Summarize must agree with stats.NearestRank exactly.
		d := server.Summarize(xs)
		for _, c := range []struct {
			name string
			q    float64
			got  float64
		}{
			{"p50", 0.50, d.P50},
			{"p95", 0.95, d.P95},
			{"p99", 0.99, d.P99},
			{"p999", 0.999, d.P999},
			{"max", 1, d.Max},
		} {
			if want := stats.NearestRank(sorted, c.q); c.got != want {
				t.Fatalf("n=%d server.Summarize %s = %v, want NearestRank %v", n, c.name, c.got, want)
			}
		}

		// stats.SummarizePauses must agree on the same durations.
		pauses := make([]stats.Pause, len(xs))
		for i, v := range xs {
			pauses[i] = stats.Pause{Start: 0, End: v}
		}
		ps := stats.SummarizePauses(pauses)
		for _, c := range []struct {
			name string
			q    float64
			got  float64
		}{
			{"median", 0.50, ps.Median},
			{"p90", 0.90, ps.P90},
			{"p95", 0.95, ps.P95},
			{"p99", 0.99, ps.P99},
		} {
			if want := stats.NearestRank(sorted, c.q); c.got != want {
				t.Fatalf("n=%d SummarizePauses %s = %v, want NearestRank %v", n, c.name, c.got, want)
			}
		}
		if ps.Max != sorted[len(sorted)-1] {
			t.Fatalf("n=%d SummarizePauses max = %v, want %v", n, ps.Max, sorted[len(sorted)-1])
		}
	}
}

// TestNearestRankSmallSamples pins the definition on the sample sizes
// where the old floor-index bug bit: p99 of 10 samples is the 10th
// order statistic (ceil(0.99*10) = 10), not the 9th.
func TestNearestRankSmallSamples(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	cases := []struct {
		q    float64
		want float64
	}{
		{0.5, 5}, {0.9, 9}, {0.95, 10}, {0.99, 10}, {1, 10}, {0, 1},
	}
	for _, c := range cases {
		if got := stats.NearestRank(xs, c.q); got != c.want {
			t.Fatalf("NearestRank(1..10, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := stats.NearestRank([]float64{42}, 0.99); got != 42 {
		t.Fatalf("single sample: %v, want 42", got)
	}
	if got := stats.NearestRank(nil, 0.5); got != 0 {
		t.Fatalf("empty sample: %v, want 0", got)
	}
}
