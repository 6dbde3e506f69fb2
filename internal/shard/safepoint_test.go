package shard

import "testing"

// TestPollThrottledByClock checks polls are spaced by the cost clock: a
// tight poll loop without clocked work takes at most one.
func TestPollThrottledByClock(t *testing.T) {
	rt, err := New(testConfig(), Options{Shards: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	s := rt.Shards()[0]
	for i := 0; i < 1000; i++ {
		s.Poll() // clock never advances: at most the first poll lands
	}
	if s.Polls() > 1 {
		t.Errorf("clock-throttled poll fired %d times with a frozen clock", s.Polls())
	}
	s.M.Work(100000)
	s.Poll()
	if s.Polls() == 0 {
		t.Error("poll never fired despite clock advance")
	}
}
