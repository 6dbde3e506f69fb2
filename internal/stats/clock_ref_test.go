package stats

import (
	"math/rand"
	"testing"
)

// refGCTime and refMaxPause are GCTime and MaxPause as they were computed
// before the clock kept running totals: a walk over every recorded pause.
// They are the definition the running totals are held to, bit for bit.
func refGCTime(c *Clock) float64 {
	var t float64
	for _, p := range c.Pauses() {
		t += p.Duration()
	}
	return t
}

func refMaxPause(c *Clock) float64 {
	var m float64
	for _, p := range c.Pauses() {
		if d := p.Duration(); d > m {
			m = d
		}
	}
	return m
}

// TestRunningPauseTotalsMatchTheLoops drives seeded random timelines whose
// advances are multiples of 0.2, 0.4 and 0.5 — so neither the pause
// durations nor their sums are exact in binary and a reordered or
// compensated addition would show — and holds the totals to the reference
// loops with == after every EndPause, and mid-pause, where the open pause
// must not be counted.
func TestRunningPauseTotalsMatchTheLoops(t *testing.T) {
	steps := []float64{0.2, 0.4, 0.5}
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		draw := func() float64 {
			return steps[rng.Intn(len(steps))] * float64(1+rng.Intn(5000))
		}
		c := NewClock(DefaultCosts())
		for i := 0; i < 10000; i++ {
			c.Advance(draw())
			c.BeginPause()
			c.Advance(draw())
			if rng.Intn(16) == 0 {
				// Mid-pause: the totals are those of the completed pauses.
				if got, want := c.GCTime(), refGCTime(c); got != want {
					t.Fatalf("seed %d pause %d, mid-pause: GCTime = %v, loop over Pauses() = %v", seed, i, got, want)
				}
				if got, want := c.MaxPause(), refMaxPause(c); got != want {
					t.Fatalf("seed %d pause %d, mid-pause: MaxPause = %v, loop = %v", seed, i, got, want)
				}
				c.Advance(draw())
			}
			c.EndPause()
			gc, max := refGCTime(c), refMaxPause(c)
			if got := c.GCTime(); got != gc {
				t.Fatalf("seed %d after pause %d: GCTime = %v, loop over Pauses() = %v", seed, i, got, gc)
			}
			if got := c.MaxPause(); got != max {
				t.Fatalf("seed %d after pause %d: MaxPause = %v, loop = %v", seed, i, got, max)
			}
			if got, want := c.MutatorTime(), c.TotalTime()-gc; got != want {
				t.Fatalf("seed %d after pause %d: MutatorTime = %v, want %v", seed, i, got, want)
			}
			if got, want := c.GCFraction(), gc/c.TotalTime(); got != want {
				t.Fatalf("seed %d after pause %d: GCFraction = %v, want %v", seed, i, got, want)
			}
		}
		// The sequence must be one on which the order of the additions
		// shows, or == above would hold for any summation.
		var backwards float64
		for ps, i := c.Pauses(), len(c.Pauses())-1; i >= 0; i-- {
			backwards += ps[i].Duration()
		}
		if backwards == c.GCTime() {
			t.Errorf("seed %d: summing the pauses backwards gives the same bits; the timeline does not exercise rounding", seed)
		}
	}
}

// TestEndPauseAllocatesOnlyThePauseList: keeping the totals costs EndPause
// two float operations and no Go-heap allocation; with room in the pause
// list a whole pause allocates nothing.
func TestEndPauseAllocatesOnlyThePauseList(t *testing.T) {
	c := NewClock(DefaultCosts())
	const runs = 1000
	c.pauses = make([]Pause, 0, runs+2) // AllocsPerRun makes one warm-up call
	n := testing.AllocsPerRun(runs, func() {
		c.Advance(0.4)
		c.BeginPause()
		c.Advance(0.2)
		c.EndPause()
		_ = c.GCTime() + c.MaxPause()
	})
	if n != 0 {
		t.Errorf("a pause allocates %v times with room in the pause list, want 0", n)
	}
	if len(c.Pauses()) != runs+1 {
		t.Fatalf("recorded %d pauses, want %d", len(c.Pauses()), runs+1)
	}
}
