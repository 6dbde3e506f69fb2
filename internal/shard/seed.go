package shard

// splitmix64 is the finalizer of the SplitMix64 generator (Steele,
// Lea & Flood, "Fast Splittable Pseudorandom Number Generators",
// OOPSLA 2014). It is a high-quality 64-bit mixing function: every
// input bit avalanches through the whole output, so consecutive
// inputs (0, 1, 2, ...) produce statistically independent outputs.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// StreamSeed derives the RNG seed for one shard's workload stream from
// the run's base seed. The naive `seed + shardID` is unsound: shard 1
// of seed S runs the exact same stream as shard 0 of seed S+1, so a
// sweep over adjacent seeds re-measures correlated workloads while
// believing them independent. Hashing the shard id through splitmix64
// before XOR-ing decorrelates both axes: distinct shards of one run
// and equal shards of adjacent runs all draw from unrelated streams.
//
// Shard 0 is the identity (StreamSeed(s, 0) == s): a one-lane run draws
// exactly the stream of its base seed, which is what lets the harness
// run the classic single-mutator measurement as the one-lane case.
func StreamSeed(seed int64, shardID int) int64 {
	if shardID == 0 {
		return seed
	}
	return seed ^ int64(splitmix64(uint64(shardID)))
}
