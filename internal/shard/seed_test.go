package shard

import (
	"math/rand"
	"testing"
)

// TestStreamSeedDecorrelated pins the bug the derivation exists to
// avoid: with the naive seed+shardID scheme, shard 1 of seed S and
// shard 0 of seed S+1 run the same stream. StreamSeed must keep the
// two axes independent.
func TestStreamSeedDecorrelated(t *testing.T) {
	for s := int64(0); s < 512; s++ {
		if StreamSeed(s, 1) == StreamSeed(s+1, 0) {
			t.Fatalf("seed %d: shard 1 collides with seed %d shard 0", s, s+1)
		}
	}
}

// TestStreamSeedDistinct checks pairwise distinctness over a grid of
// base seeds and shard ids.
func TestStreamSeedDistinct(t *testing.T) {
	seen := map[int64][2]int64{}
	for s := int64(0); s < 64; s++ {
		for id := 0; id < 16; id++ {
			v := StreamSeed(s, id)
			if prev, dup := seen[v]; dup {
				t.Fatalf("StreamSeed(%d,%d) == StreamSeed(%d,%d)", s, id, prev[0], prev[1])
			}
			seen[v] = [2]int64{s, int64(id)}
		}
	}
}

// TestStreamIndependence draws from the derived streams and checks
// adjacent shards (and adjacent seeds) do not produce correlated
// sequences: across many draws, the fraction of positions where two
// streams emit the same bucket must be near the 1/k chance level.
func TestStreamIndependence(t *testing.T) {
	const draws, buckets = 4096, 16
	stream := func(seed int64, id int) []int {
		rng := rand.New(rand.NewSource(StreamSeed(seed, id)))
		out := make([]int, draws)
		for i := range out {
			out[i] = rng.Intn(buckets)
		}
		return out
	}
	match := func(a, b []int) float64 {
		same := 0
		for i := range a {
			if a[i] == b[i] {
				same++
			}
		}
		return float64(same) / float64(len(a))
	}
	pairs := [][2][]int{
		{stream(1, 0), stream(1, 1)}, // adjacent shards, one seed
		{stream(1, 1), stream(2, 0)}, // the seed+i collision pair
		{stream(1, 0), stream(2, 0)}, // same shard, adjacent seeds
	}
	for i, p := range pairs {
		got := match(p[0], p[1])
		// Chance level is 1/16 = 0.0625; allow generous slack but fail
		// hard if the streams are identical or strongly correlated.
		if got > 0.125 {
			t.Errorf("pair %d: %.2f%% positions match (chance %.2f%%) — streams correlated",
				i, 100*got, 100.0/buckets)
		}
	}
	// splitmix64 sanity: the canonical constants must avalanche 0 and 1
	// far apart (guards against a typo'd constant silently weakening
	// every derived stream).
	if splitmix64(0) == 0 || splitmix64(0) == splitmix64(1) {
		t.Error("splitmix64 does not avalanche")
	}
}

// TestReleasedRngDrawsAsNew: a lane RNG that a released runtime handed
// on, half-way through a Read and re-seeded, draws what
// rand.New(rand.NewSource(seed)) draws.
func TestReleasedRngDrawsAsNew(t *testing.T) {
	rt := newTestRuntime(t, 2, false)
	used := rt.Shards()[1].Rng
	var b [3]byte
	used.Read(b[:]) // leaves a partly consumed Read value behind
	used.Intn(100)
	rt.Release()

	next := newTestRuntime(t, 2, false)
	defer next.Release()
	recycled := false
	for _, s := range next.Shards() {
		recycled = recycled || s.Rng == used
		fresh := rand.New(rand.NewSource(StreamSeed(20020617, s.ID)))
		var got, want [7]byte
		s.Rng.Read(got[:])
		fresh.Read(want[:])
		if got != want {
			t.Fatalf("shard %d: Read %x, a new RNG reads %x", s.ID, got, want)
		}
		for i := 0; i < 1000; i++ {
			if g, w := s.Rng.Int63(), fresh.Int63(); g != w {
				t.Fatalf("shard %d draw %d: %d, a new RNG draws %d", s.ID, i, g, w)
			}
		}
	}
	if !recycled {
		t.Error("no lane took the released RNG")
	}
}
