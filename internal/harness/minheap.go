package harness

import (
	"encoding/json"
	"fmt"

	"beltway/internal/engine"
	"beltway/internal/workload"
)

// FindMinHeap binary-searches the smallest heap size (frame granularity)
// at which the benchmark completes under the given collector — Table 1's
// "minimum heap size in which an Appel-style collector does not fail".
// That is the collector as configured on an undisturbed machine: the
// search runs without env's adaptive controller, so the x-axis origin of
// a figure does not move with what the figure's runs are subjected to.
func FindMinHeap(mk ConfigFunc, bench *workload.Benchmark, env Env) (int, error) {
	env.Policy = ""
	completes := func(heapBytes int) (bool, error) {
		res, err := RunOne(mk(heapBytes), bench, env)
		if err != nil {
			return false, err
		}
		return !res.OOM, nil
	}
	n, err := findMinHeap(completes, env.FrameBytes)
	if err != nil {
		return 0, fmt.Errorf("harness: %s: %w", bench.Name, err)
	}
	return n, nil
}

// findMinHeap is the search core, separated from benchmark execution so
// the probe order can be unit-tested against stub thresholds. It returns
// the smallest TESTED completing size at frame granularity: the search
// floor of 8 frames is probed first (it used to be assumed failing, which
// inflated the reported minimum of anything that completes at or below
// the floor), and the bisection maintains "lo tested failing, hi tested
// completing" so the final hi needs no extra confirmation run.
func findMinHeap(completes func(int) (bool, error), frameBytes int) (int, error) {
	lo := 8 * frameBytes
	ok, err := completes(lo)
	if err != nil {
		return 0, err
	}
	if ok {
		// The floor completes; 8 frames is the smallest size the search
		// is willing to distinguish, so report it.
		return lo, nil
	}

	// Exponential search upward for a completing size.
	hi := lo * 2
	for {
		ok, err := completes(hi)
		if err != nil {
			return 0, err
		}
		if ok {
			break
		}
		lo = hi
		hi *= 2
		if hi > 1<<31 {
			return 0, fmt.Errorf("never completes in any heap up to 2 GiB")
		}
	}

	// Bisect down to frame granularity. Invariant: lo failed, hi
	// completed, both actually run.
	for hi-lo > frameBytes {
		mid := (lo + hi) / 2
		mid = (mid / frameBytes) * frameBytes
		if mid <= lo {
			// Rounding pinned mid to the failing bound; the interval is
			// already below frame granularity.
			break
		}
		ok, err := completes(mid)
		if err != nil {
			return 0, err
		}
		if ok {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi, nil
}

// minPayload is the checkpoint payload of a minimum-heap search.
type minPayload struct {
	MinHeapBytes int `json:"min_heap_bytes"`
}

// MinHeaps returns the Appel minimum heap of every benchmark under env —
// the paper's Table 1 baseline and the x-axis origin of every figure —
// each searched as one engine job under key with the benchmark's name
// filled in: in parallel across benchmarks and checkpointed like any
// measurement, so an engine that already holds a benchmark's record (a
// resumed run, the figure before this one) searches nothing.
func MinHeaps(eng *engine.Engine, key engine.Key, benches []*workload.Benchmark, env Env) (map[string]int, error) {
	jobs := make([]engine.Job, len(benches))
	for i, b := range benches {
		key.Benchmark = b.Name
		jobs[i] = engine.Job{Key: key, Run: func() (any, engine.Outcome, error) {
			min, err := FindMinHeap(AppelConfig(env), b, env)
			if err != nil {
				return nil, "", err
			}
			return minPayload{MinHeapBytes: min}, engine.OK, nil
		}}
	}
	recs, err := eng.Run(jobs)
	if err != nil {
		return nil, err
	}
	out := make(map[string]int, len(recs))
	for i, rec := range recs {
		name := benches[i].Name
		if !rec.Outcome.Completed() {
			return nil, fmt.Errorf("harness: min heap search for %s: %s: %s", name, rec.Outcome, rec.Error)
		}
		var p minPayload
		if uerr := json.Unmarshal(rec.Payload, &p); uerr != nil || p.MinHeapBytes <= 0 {
			return nil, fmt.Errorf("harness: bad min heap record for %s: %v", name, uerr)
		}
		out[name] = p.MinHeapBytes
	}
	return out, nil
}
