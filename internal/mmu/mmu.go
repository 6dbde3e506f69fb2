// Package mmu computes minimum mutator utilization curves, following the
// methodology of Cheng and Blelloch that the paper adopts for its
// responsiveness results (§4.3, Figure 11).
//
// Mutator utilization over an interval [t0,t1) is the fraction of that
// interval during which the mutator (not the collector) runs. A point
// (w, m) lies on the MMU curve if every window of length w within the
// run has utilization at least m. MMU curves are monotonically
// non-decreasing in w; the x-intercept is the maximum GC pause and the
// asymptote is overall mutator throughput.
package mmu

import (
	"math"
	"sort"

	"beltway/internal/stats"
)

// Point is one (window, utilization) sample of an MMU curve.
type Point struct {
	Window      float64 // window length, cost units
	Utilization float64 // minimum mutator utilization over all such windows
}

// Curve holds MMU samples for increasing window sizes.
type Curve struct {
	Points []Point
	// MaxPause is the longest single pause (the curve's x-intercept).
	MaxPause float64
	// Throughput is overall mutator utilization (the curve's asymptote).
	Throughput float64
}

// MMU returns the minimum mutator utilization for a single window length
// w, given the run's pauses and total time.
//
// The minimum over all windows of length w is attained at a window whose
// start or end coincides with a pause boundary, so it suffices to
// evaluate windows anchored at each pause's start and end.
func MMU(pauses []stats.Pause, total, w float64) float64 {
	if w <= 0 {
		return 0
	}
	if w >= total {
		// One window: the whole run.
		var gcT float64
		for _, p := range pauses {
			gcT += p.Duration()
		}
		if total == 0 {
			return 1
		}
		return 1 - gcT/total
	}
	min := 1.0
	consider := func(start float64) {
		if start < 0 {
			start = 0
		}
		if start+w > total {
			start = total - w
		}
		gcT := gcWithin(pauses, start, start+w)
		if u := 1 - gcT/w; u < min {
			min = u
		}
	}
	for _, p := range pauses {
		consider(p.Start)   // window starting at a pause start
		consider(p.End - w) // window ending at a pause end
	}
	if min < 0 {
		min = 0
	}
	return min
}

// gcWithin returns the total pause time overlapping [a,b).
func gcWithin(pauses []stats.Pause, a, b float64) float64 {
	var t float64
	// Pauses are in timeline order; binary search the first overlapper.
	i := sort.Search(len(pauses), func(i int) bool { return pauses[i].End > a })
	for ; i < len(pauses) && pauses[i].Start < b; i++ {
		lo := math.Max(pauses[i].Start, a)
		hi := math.Min(pauses[i].End, b)
		if hi > lo {
			t += hi - lo
		}
	}
	return t
}

// Monotone replaces each point's utilization with the minimum over all
// windows of AT LEAST its size (the suffix minimum). Raw MMU is not
// monotone in the window size; the monotone envelope — sometimes called
// bounded mutator utilization — is what the paper's "monotonically
// increasing" Figure 11 curves show.
func (c *Curve) Monotone() {
	for i := len(c.Points) - 2; i >= 0; i-- {
		if c.Points[i+1].Utilization < c.Points[i].Utilization {
			c.Points[i].Utilization = c.Points[i+1].Utilization
		}
	}
}

// Sample is the one MMU sampler: the monotone curve of a run — its
// pauses in timeline order, total time, longest pause and time in GC —
// at n log-spaced window sizes between the maximum pause (the smallest
// interesting window) divided by 4 and the total run time. A run that
// took no time, or n < 2, has no windows to sample. Use MMU directly for
// raw, non-monotone values.
func Sample(pauses []stats.Pause, total, maxPause, gcTime float64, n int) Curve {
	c := Curve{MaxPause: maxPause, Throughput: 1}
	if total > 0 {
		c.Throughput = 1 - gcTime/total
	}
	if n < 2 || total <= 0 {
		return c
	}
	lo := maxPause / 4
	if lo <= 0 {
		lo = total / 1e6
	}
	hi := total
	if lo > hi {
		lo = hi
	}
	for i := 0; i < n; i++ {
		w := lo * math.Pow(hi/lo, float64(i)/float64(n-1))
		if k := len(c.Points); k > 0 && w <= c.Points[k-1].Window {
			// Log spacing collides when hi/lo is near 1 (or rounds below
			// the previous sample near the ends of the range); keeping a
			// duplicate window would divide by zero in At's log-space
			// interpolation.
			continue
		}
		c.Points = append(c.Points, Point{Window: w, Utilization: MMU(pauses, total, w)})
	}
	c.Monotone()
	return c
}

// Compute is Sample read off a clock.
func Compute(clock *stats.Clock, n int) Curve {
	return Sample(clock.Pauses(), clock.TotalTime(), clock.MaxPause(), clock.GCTime(), n)
}

// At interpolates the curve's utilization at window w (piecewise linear
// in log-window space; clamps at the ends).
func (c Curve) At(w float64) float64 {
	pts := c.Points
	if len(pts) == 0 {
		return 0
	}
	if w <= pts[0].Window {
		return pts[0].Utilization
	}
	for i := 1; i < len(pts); i++ {
		if w <= pts[i].Window {
			a, b := pts[i-1], pts[i]
			span := math.Log(b.Window) - math.Log(a.Window)
			if !(span > 0) {
				// Duplicate (or unsorted) windows in a hand-built curve:
				// interpolation is undefined, so report the conservative
				// (lower) of the two utilizations instead of NaN.
				return math.Min(a.Utilization, b.Utilization)
			}
			f := (math.Log(w) - math.Log(a.Window)) / span
			return a.Utilization + f*(b.Utilization-a.Utilization)
		}
	}
	return pts[len(pts)-1].Utilization
}
