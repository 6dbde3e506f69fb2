package main

import (
	"sync"
	"time"
)

// The calibration kernel is a fixed piece of Go that does what the
// simulator's hot paths do — decode a header and bump-copy an object,
// then chase pointers through memory — without calling any of it. It
// imports nothing from beltway/ (a test pins that), so a change to the
// program cannot move it; the host can. Dividing a job's wall time by the
// adjacent kernel time takes out the slow periods of a shared host, which
// last seconds and would otherwise swamp any delta.
//
// Sizes were chosen by measurement, not taken from the issue (8 MB slab,
// 4 MB permutation, 100k small allocations, 30 ms). At a tenth of scale 1
// the jobs run 5-60 ms over simulated heaps that fit the L2 cache, and a
// kernel only cancels noise it shares with the jobs. Interleaved with jobs
// over 40 rounds on the reference host, per-round log(jobs/kernel) had a
// standard deviation of 0.16 with this L2-resident kernel (correlation
// 0.89 with the jobs) against 0.34 for the jobs alone; the same kernel
// with 5000 allocations a pass gave 0.20, with buffers twice the size
// 0.19, and the issue's shape at quarter size 0.18-0.27 (correlation
// 0.65-0.77): Go allocation brings collector cycles into the kernel and
// memory-bound work picks up neighbours' cache traffic, both noise the
// jobs do not share.
const (
	calibSlabWords  = 64 << 10 // 256 KB slab: from-half and to-half
	calibPermWords  = 32 << 10 // 128 KB single-cycle permutation
	calibChaseSteps = 256 << 10
	calibPasses     = 3

	// calibNominal is the kernel's undisturbed time on the reference host.
	// Set-up time is reported in seconds of a host that runs the kernel in
	// exactly this long, so that a slow period does not read as a slow
	// set-up.
	calibNominal = 3 * time.Millisecond
)

type calibrator struct {
	slab []uint32
	perm []uint32
	sink uint32
}

func newCalibrator() *calibrator {
	c := &calibrator{
		slab: make([]uint32, calibSlabWords),
		perm: make([]uint32, calibPermWords),
	}
	// From-half: back-to-back objects whose header's low byte is their
	// size in words (3..18), the rest payload.
	lcg := uint32(20020617)
	half := calibSlabWords / 2
	for p := 0; p < half; {
		lcg = lcg*1664525 + 1013904223
		size := 3 + int(lcg>>28)
		if p+size > half {
			size = half - p
		}
		c.slab[p] = lcg&^0xff | uint32(size)
		for i := 1; i < size; i++ {
			c.slab[p+i] = lcg ^ uint32(i)
		}
		p += size
	}
	// Sattolo's shuffle: one cycle through every element, so the chase
	// cannot settle into a short loop.
	for i := range c.perm {
		c.perm[i] = uint32(i)
	}
	for i := len(c.perm) - 1; i > 0; i-- {
		lcg = lcg*1664525 + 1013904223
		j := int(lcg>>8) % i
		c.perm[i], c.perm[j] = c.perm[j], c.perm[i]
	}
	return c
}

// runWide executes the kernel once on each of the calibrators, all at the
// same time, and returns the wall time until the last has finished. A job
// that runs two mutators or two worker processes is preceded by a kernel
// two wide: it is the host's capacity on two cores that such a job waits
// for, and a kernel on one core does not see the second one being taken
// away. (Measured on grid_small_jobs in a bad quarter of an hour:
// host_time_cal over 15 s windows spread 35% with the kernel one wide, 9%
// with it two wide.)
func runWide(cs []*calibrator) time.Duration {
	t0 := time.Now()
	var wg sync.WaitGroup
	for _, c := range cs[1:] {
		wg.Add(1)
		go func(c *calibrator) {
			defer wg.Done()
			c.run()
		}(c)
	}
	cs[0].run()
	wg.Wait()
	return time.Since(t0)
}

// run executes the kernel once and returns its wall time.
func (c *calibrator) run() time.Duration {
	t0 := time.Now()
	half := calibSlabWords / 2
	from, to := c.slab[:half], c.slab[half:]
	for pass := 0; pass < calibPasses; pass++ {
		bump := 0
		for p := 0; p < half; {
			size := int(from[p] & 0xff)
			if size == 0 {
				break
			}
			copy(to[bump:bump+size], from[p:p+size])
			bump += size
			p += size
		}
		i := c.sink % calibPermWords
		for n := 0; n < calibChaseSteps; n++ {
			i = c.perm[i]
		}
		c.sink = i + to[bump-1]
	}
	return time.Since(t0)
}
