package harness

import (
	"math"
	"testing"

	"beltway/internal/collectors"
	"beltway/internal/core"
	"beltway/internal/workload"
)

// stubCompletes models a benchmark with a sharp failure threshold: any
// heap of at least `threshold` bytes completes, anything smaller OOMs.
// It records every probed size so tests can assert the probe order.
func stubCompletes(threshold int, probes *[]int) func(int) (bool, error) {
	return func(heapBytes int) (bool, error) {
		*probes = append(*probes, heapBytes)
		return heapBytes >= threshold, nil
	}
}

func TestFindMinHeapThresholds(t *testing.T) {
	const frame = 4096
	const lo = 8 * frame
	cases := []struct {
		name      string
		threshold int
		want      int
	}{
		// The floor is the smallest size the search distinguishes, so
		// thresholds at or below it must all report exactly the floor —
		// the old code never probed lo and reported lo+frame instead.
		{"below floor", frame, lo},
		{"at floor", lo, lo},
		{"one frame above floor", lo + frame, lo + frame},
		{"unaligned above floor", lo + frame + 100, lo + 2*frame},
		{"far above floor", 64 * lo, 64 * lo},
		{"far and unaligned", 64*lo + 1, 64*lo + frame},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var probes []int
			got, err := findMinHeap(stubCompletes(tc.threshold, &probes), frame)
			if err != nil {
				t.Fatal(err)
			}
			if got != tc.want {
				t.Errorf("findMinHeap = %d, want %d (probes: %v)", got, tc.want, probes)
			}
			if len(probes) == 0 || probes[0] != lo {
				t.Errorf("floor %d not probed first: %v", lo, probes)
			}
			for _, p := range probes {
				if p < lo {
					t.Errorf("probed %d below the floor %d", p, lo)
				}
				if p%frame != 0 {
					t.Errorf("probed %d not frame-aligned", p)
				}
			}
			// The answer must itself have been run, and every probe below
			// it must have failed: smallest TESTED completing size.
			tested := false
			for _, p := range probes {
				if p == got {
					tested = true
				}
				if p < got && p >= tc.threshold {
					t.Errorf("probe %d completed but %d was reported", p, got)
				}
			}
			if !tested {
				t.Errorf("reported size %d was never actually run (probes: %v)", got, probes)
			}
		})
	}
}

func TestFindMinHeapNeverCompletes(t *testing.T) {
	var probes []int
	_, err := findMinHeap(stubCompletes(math.MaxInt, &probes), 4096)
	if err == nil {
		t.Fatal("expected an error for a benchmark that never completes")
	}
}

// TestMinHeapIgnoresController: the minimum heap is the x-axis origin of
// every figure, so it is searched on the collector as configured — an Env
// that puts the figure's runs under the adaptive controller sizes them
// from the same origin as the static Env does.
func TestMinHeapIgnoresController(t *testing.T) {
	env := EnvForScale(0.1)
	xx25 := func(h int) core.Config { return collectors.XX(25, env.Options(h)) }
	for _, c := range []struct {
		name  string
		mk    ConfigFunc
		bench string
		under Env
	}{
		{"Appel under -adapt", AppelConfig(env), "jess", Env{Policy: "slo"}},
		{"25.25 under -adapt", xx25, "javac", Env{Policy: "slo:max=4000"}},
	} {
		static, err := FindMinHeap(c.mk, workload.Get(c.bench), env)
		if err != nil {
			t.Fatal(err)
		}
		disturbed := env
		disturbed.Policy = c.under.Policy
		got, err := FindMinHeap(c.mk, workload.Get(c.bench), disturbed)
		if err != nil {
			t.Fatal(err)
		}
		if got != static {
			t.Errorf("%s: minimum heap %d, static %d", c.name, got, static)
		}
	}
}
