package mmu

import (
	"math"
	"testing"
	"testing/quick"

	"beltway/internal/stats"
)

// clockWith builds a clock with the given (start,end) pauses and total.
func clockWith(total float64, pauses ...[2]float64) *stats.Clock {
	c := stats.NewClock(stats.DefaultCosts())
	at := 0.0
	for _, p := range pauses {
		c.Advance(p[0] - at)
		c.BeginPause()
		c.Advance(p[1] - p[0])
		c.EndPause()
		at = p[1]
	}
	c.Advance(total - at)
	return c
}

func TestMMUSinglePause(t *testing.T) {
	// One 10-unit pause in a 100-unit run.
	c := clockWith(100, [2]float64{40, 50})
	ps := c.Pauses()

	// Window equal to the pause: some window is all GC.
	if got := MMU(ps, 100, 10); got != 0 {
		t.Errorf("MMU(w=10) = %v, want 0", got)
	}
	// Window of 20 containing the whole pause: utilization 0.5.
	if got := MMU(ps, 100, 20); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("MMU(w=20) = %v, want 0.5", got)
	}
	// Whole-run window: 0.9.
	if got := MMU(ps, 100, 100); math.Abs(got-0.9) > 1e-9 {
		t.Errorf("MMU(w=100) = %v, want 0.9", got)
	}
	// Tiny window inside the pause: 0.
	if got := MMU(ps, 100, 1); got != 0 {
		t.Errorf("MMU(w=1) = %v, want 0", got)
	}
}

func TestMMUClusteredPauses(t *testing.T) {
	// Two 10-unit pauses separated by 5 units of mutator: a 25-unit
	// window covering both has utilization 5/25 = 0.2 — worse than
	// either pause alone suggests (the clustering effect §4.3 measures).
	c := clockWith(200, [2]float64{100, 110}, [2]float64{115, 125})
	ps := c.Pauses()
	if got := MMU(ps, 200, 25); math.Abs(got-0.2) > 1e-9 {
		t.Errorf("MMU(w=25) = %v, want 0.2", got)
	}
}

func TestMMUNoGC(t *testing.T) {
	c := clockWith(50)
	if got := MMU(c.Pauses(), 50, 10); got != 1 {
		t.Errorf("MMU with no pauses = %v, want 1", got)
	}
}

func TestComputeCurveShape(t *testing.T) {
	c := clockWith(1000,
		[2]float64{100, 120}, [2]float64{300, 330}, [2]float64{700, 710})
	curve := Compute(c, 24)
	if curve.MaxPause != 30 {
		t.Errorf("MaxPause = %v", curve.MaxPause)
	}
	if math.Abs(curve.Throughput-0.94) > 1e-9 {
		t.Errorf("Throughput = %v", curve.Throughput)
	}
	if len(curve.Points) != 24 {
		t.Fatalf("%d points", len(curve.Points))
	}
	// Monotonically non-decreasing in window size.
	for i := 1; i < len(curve.Points); i++ {
		if curve.Points[i].Utilization < curve.Points[i-1].Utilization-1e-9 {
			t.Errorf("curve decreases at %d: %v -> %v", i,
				curve.Points[i-1].Utilization, curve.Points[i].Utilization)
		}
		if curve.Points[i].Window <= curve.Points[i-1].Window {
			t.Errorf("windows not increasing at %d", i)
		}
	}
	// Below the max pause, utilization is 0; at the whole run it is
	// close to throughput.
	if curve.Points[0].Utilization != 0 {
		t.Errorf("smallest-window utilization = %v, want 0", curve.Points[0].Utilization)
	}
	last := curve.Points[len(curve.Points)-1]
	if math.Abs(last.Utilization-curve.Throughput) > 0.05 {
		t.Errorf("largest-window utilization %v far from throughput %v",
			last.Utilization, curve.Throughput)
	}
}

func TestCurveAtInterpolates(t *testing.T) {
	c := clockWith(1000, [2]float64{500, 520})
	curve := Compute(c, 16)
	// At() must be within [0,1], monotone, and match endpoints.
	prev := -1.0
	for w := curve.Points[0].Window; w <= 1000; w *= 1.7 {
		u := curve.At(w)
		if u < 0 || u > 1 {
			t.Fatalf("At(%v) = %v out of range", w, u)
		}
		if u < prev-1e-9 {
			t.Fatalf("At not monotone at %v", w)
		}
		prev = u
	}
	if got := curve.At(curve.Points[0].Window / 10); got != curve.Points[0].Utilization {
		t.Error("At below first point should clamp")
	}
	if got := curve.At(1e12); got != curve.Points[len(curve.Points)-1].Utilization {
		t.Error("At beyond last point should clamp")
	}
}

// TestCurveAtEdgeCases pins At's behavior on degenerate curves: empty,
// single-point, duplicate windows, and the div-by-zero case — two
// distinct windows so close (or so large) that their logs collapse to
// the same float64, which used to interpolate to NaN.
func TestCurveAtEdgeCases(t *testing.T) {
	// log(next) == log(1e15) exactly in float64: the relative gap is one
	// ulp of the argument, far below one ulp of the logarithm.
	next := math.Nextafter(1e15, 2e15)
	one := Curve{Points: []Point{{Window: 5, Utilization: 0.4}}}
	cases := []struct {
		name  string
		curve Curve
		w     float64
		want  float64
	}{
		{"empty curve", Curve{}, 10, 0},
		{"one point, below", one, 1, 0.4},
		{"one point, at", one, 5, 0.4},
		{"one point, above", one, 100, 0.4},
		{"zero window", one, 0, 0.4},
		{"log-collapsed pair", Curve{Points: []Point{
			{Window: 1e15, Utilization: 0.2},
			{Window: next, Utilization: 0.8},
		}}, next, 0.2},
		{"exact duplicate windows", Curve{Points: []Point{
			{Window: 5, Utilization: 0.3},
			{Window: 5, Utilization: 0.9},
		}}, 5, 0.3},
		// What harness.Result.MMU(1) and an all-zero Result sample: the
		// copy of the loop it used to run divided 0 by 0 on both.
		{"sampled at one point", Sample([]stats.Pause{{Start: 40, End: 50}}, 100, 10, 10, 1), 20, 0},
		{"sampled from a run that took no time", Sample(nil, 0, 0, 0, 64), 20, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := tc.curve.At(tc.w)
			if math.IsNaN(got) {
				t.Fatalf("At(%v) = NaN", tc.w)
			}
			if math.Abs(got-tc.want) > 1e-9 {
				t.Errorf("At(%v) = %v, want %v", tc.w, got, tc.want)
			}
		})
	}
}

// TestComputeEdgeCases covers runs where the sampling range degenerates:
// no pauses at all, a run that is one single pause, and a denormal-scale
// total where log spacing collides and Compute must drop the duplicate
// windows it used to emit.
func TestComputeEdgeCases(t *testing.T) {
	t.Run("zero pauses", func(t *testing.T) {
		curve := Compute(clockWith(50), 8)
		if curve.MaxPause != 0 || curve.Throughput != 1 {
			t.Fatalf("MaxPause=%v Throughput=%v", curve.MaxPause, curve.Throughput)
		}
		for _, p := range curve.Points {
			if p.Utilization != 1 {
				t.Fatalf("utilization %v at window %v, want 1", p.Utilization, p.Window)
			}
		}
		if got := curve.At(25); got != 1 {
			t.Errorf("At(25) = %v, want 1", got)
		}
	})
	t.Run("run is one single pause", func(t *testing.T) {
		curve := Compute(clockWith(10, [2]float64{0, 10}), 8)
		if curve.Throughput != 0 {
			t.Fatalf("Throughput = %v, want 0", curve.Throughput)
		}
		for _, p := range curve.Points {
			if p.Utilization != 0 {
				t.Fatalf("utilization %v at window %v, want 0", p.Utilization, p.Window)
			}
		}
		if got := curve.At(3); got != 0 {
			t.Errorf("At(3) = %v, want 0", got)
		}
	})
	t.Run("denormal total dedupes windows", func(t *testing.T) {
		// At denormal magnitudes adjacent log-spaced samples round to the
		// same float64, so the raw sampling loop produces duplicates.
		curve := Compute(clockWith(1e-320, [2]float64{0, 1e-321}), 512)
		if len(curve.Points) == 0 {
			t.Fatal("no points")
		}
		if len(curve.Points) >= 512 {
			t.Fatalf("expected window collisions to be dropped, kept all %d", len(curve.Points))
		}
		for i := 1; i < len(curve.Points); i++ {
			if curve.Points[i].Window <= curve.Points[i-1].Window {
				t.Fatalf("windows not strictly increasing at %d: %v, %v",
					i, curve.Points[i-1].Window, curve.Points[i].Window)
			}
		}
		for w := curve.Points[0].Window; w <= 1e-320; w *= 1.5 {
			if u := curve.At(w); math.IsNaN(u) || u < 0 || u > 1 {
				t.Fatalf("At(%v) = %v", w, u)
			}
		}
	})
}

func TestMMUBoundsProperty(t *testing.T) {
	// Property: for random pause layouts, 0 <= MMU <= 1 and MMU at the
	// full window equals 1 - gc/total.
	prop := func(raw []uint16, wseed uint16) bool {
		total := 10000.0
		at := 0.0
		var spans [][2]float64
		for _, r := range raw {
			gap := float64(r%500) + 1
			dur := float64(r%97) + 1
			if at+gap+dur >= total-1 {
				break
			}
			spans = append(spans, [2]float64{at + gap, at + gap + dur})
			at += gap + dur
		}
		c := clockWith(total, spans...)
		w := float64(wseed%9000) + 50
		u := MMU(c.Pauses(), total, w)
		if u < 0 || u > 1 {
			return false
		}
		want := 1 - c.GCTime()/total
		return math.Abs(MMU(c.Pauses(), total, total)-want) < 1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}
