// Package server is the request/response workload family: a
// deterministic generator of skewed key-value traffic over a store built
// on the vm.Mutator API, plus an SLO layer that turns the per-request
// latency stream (stamped on the cost-unit clock) into pass/fail
// verdicts. Production traffic is request-shaped — Zipfian key
// popularity, read/write mixes, phase shifts — and collectors serving it
// are judged by request-level tail latencies, not MMU alone; this
// package makes those claims measurable on every collector preset, flat
// and sharded.
package server

import (
	"math"
	"sync"
)

// rng is a splitmix64 PRNG: deterministic, allocation-free, and owned by
// this package so request streams cannot drift with math/rand internals
// across Go releases. Output quality is ample for workload synthesis.
type rng struct{ state uint64 }

func newRNG(seed int64) *rng {
	// Avoid the all-zero state and decorrelate small seeds.
	return &rng{state: uint64(seed)*0x9E3779B97F4A7C15 + 0x1F123BB5159A55E5}
}

func (r *rng) Uint64() uint64 {
	r.state += 0x9E3779B97F4A7C15
	z := r.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Float64 returns a uniform float in [0, 1) with 53 random bits.
func (r *rng) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform int in [0, n). n must be positive.
func (r *rng) Intn(n int) int {
	return int(r.Uint64() % uint64(n))
}

// zipf samples ranks 0..n-1 with probability proportional to
// 1/(rank+1)^theta, theta in (0, 1) — the YCSB-style skew knob (theta
// 0.99 is the classic "zipfian" setting; lower is flatter). The sampler
// is Gray et al.'s closed-form inversion; the only state is the
// precomputed zeta sums, so sampling is O(1) and deterministic given the
// rng stream.
type zipf struct {
	n     int
	theta float64
	zetan float64 // sum_{i=1..n} 1/i^theta
	zeta2 float64 // sum_{i=1..2} 1/i^theta
	half  float64 // 0.5^theta: rank 1's weight, a constant of the sampler
	alpha float64
	eta   float64
}

func newZipf(n int, theta float64) *zipf {
	z := &zipf{theta: theta, half: math.Pow(0.5, theta)}
	z.zeta2 = zetaRange(0, 2, theta)
	z.Grow(n)
	return z
}

// zetaRange returns sum_{i=from+1..to} 1/i^theta. The sum is a pure
// function of its arguments and costs one math.Pow per key, so the
// process remembers every one it has computed: a hit returns the bits
// the loop below produced the first time, whichever goroutine asked
// (engine workers at -jobs N and farm workers build Loops concurrently).
// It pays off only where one process builds several Loops over the same
// (theta, keys) — every lane and every collector of an -exp server or
// -exp adapt grid, a farm worker's jobs, the benchmark's server_mix — and
// a single `beltway -server` run computes each sum once, as it always
// did. An entry is a few words and a process sees a handful of distinct
// (theta, keys), so nothing is ever evicted.
func zetaRange(from, to int, theta float64) float64 {
	key := zetaKey{from, to, theta}
	zetaMemo.Lock()
	s, ok := zetaMemo.sums[key] // zero on a miss
	zetaMemo.Unlock()
	if !ok {
		for i := from + 1; i <= to; i++ {
			s += 1 / math.Pow(float64(i), theta)
		}
		zetaMemo.Lock()
		zetaMemo.sums[key] = s
		zetaMemo.Unlock()
	}
	return s
}

type zetaKey struct {
	from, to int
	theta    float64
}

var zetaMemo = struct {
	sync.Mutex
	sums map[zetaKey]float64
}{sums: make(map[zetaKey]float64)}

// Grow extends the rank space to n (the working-set-growth phase shift),
// reusing the existing zeta prefix so growth is O(new keys).
func (z *zipf) Grow(n int) {
	if n <= z.n {
		return
	}
	z.zetan += zetaRange(z.n, n, z.theta)
	z.n = n
	z.alpha = 1 / (1 - z.theta)
	z.eta = (1 - math.Pow(2/float64(n), 1-z.theta)) / (1 - z.zeta2/z.zetan)
}

// Sample draws one rank in [0, n). Rank 0 is the most popular.
func (z *zipf) Sample(r *rng) int {
	u := r.Float64()
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < 1+z.half {
		return 1
	}
	k := int(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
	if k >= z.n {
		k = z.n - 1
	}
	return k
}
