package policy_test

import (
	"strings"
	"testing"

	"beltway/internal/policy"
)

// FuzzPolicyParse holds the -adapt parser to its trust boundary: any input
// is a Config with an objective or a "policy:" error, never a panic.
func FuzzPolicyParse(f *testing.F) {
	for _, s := range []string{
		// The spellings of CI, README, EXPERIMENTS.md and the tests.
		"slo", "throughput", "throughput:target=0.1", "throughput:target=0.05", "slo:max=4000",
		"slo:p99=1e4,max=5e6", "slo:p99=10e3,p99.9=1e6,max=5e6",
		// Edges: rejected spellings, and blank parameters (the defaults).
		"", "bogus", "mmu", "footprint", "slo:p42=1", "throughput:target=0", "throughput:rate=1",
		"throughput:target", "slo:", "throughput:", "slo: ",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		c, err := policy.Parse(spec)
		if err != nil {
			if !strings.HasPrefix(err.Error(), "policy: ") {
				t.Fatalf("Parse(%q) error %q is not a policy: error", spec, err)
			}
			return
		}
		switch c.Objective {
		case policy.ObjSLO:
			if len(c.SLO.Targets) == 0 {
				t.Fatalf("Parse(%q) accepted an SLO objective with no target", spec)
			}
		case policy.ObjThroughput:
			if !(c.GCTarget > 0) {
				t.Fatalf("Parse(%q) accepted a GC target of %v", spec, c.GCTarget)
			}
		default:
			t.Fatalf("Parse(%q) accepted objective %v", spec, c.Objective)
		}
	})
}
