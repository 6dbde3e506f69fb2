package stats_test

import (
	"testing"

	"beltway/internal/stats"
)

var clockSink float64

// BenchmarkClockPauseTotals measures reading the clock's pause totals —
// GCTime and MaxPause — with 1,000 pauses on the timeline, which is what
// the server loop does around every request (a mid-sized server run has a
// few hundred to a few thousand collections behind it by its last
// request).
func BenchmarkClockPauseTotals(b *testing.B) {
	c := stats.NewClock(stats.DefaultCosts())
	for i := 0; i < 1000; i++ {
		c.Advance(1000.4)
		c.BeginPause()
		c.Advance(float64(100+i%7) * 0.2)
		c.EndPause()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clockSink += c.GCTime() + c.MaxPause()
	}
}
