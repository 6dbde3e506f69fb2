package policy_test

import (
	"strings"
	"testing"

	"beltway/internal/policy"
)

// FuzzPolicyParse holds the -adapt parser to its trust boundary: any input
// is a "policy:" error or an "slo" spec's Config with at least one SLO
// target, never a panic.
func FuzzPolicyParse(f *testing.F) {
	for _, s := range []string{
		// The spellings of CI, README, EXPERIMENTS.md and the tests.
		"slo", "slo:max=4000", "slo:p99=1e4,max=5e6", "slo:p99=10e3,p99.9=1e6,max=5e6",
		// Edges: rejected spellings (the deleted objectives among them),
		// and blank parameters (the default SLO).
		"", "bogus", "mmu", "footprint", "throughput", "throughput:target=0.1",
		"throughput:target=0.05", "throughput:", "slo:p42=1", "throughput:target=0",
		"throughput:rate=1", "throughput:target", "slo:", "slo: ",
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
		if name, _, _ := strings.Cut(strings.TrimSpace(spec), ":"); name != "slo" {
			t.Fatalf("Parse(%q) accepted objective %q", spec, name)
		}
		if len(c.SLO.Targets) == 0 {
			t.Fatalf("Parse(%q) accepted an SLO with no target", spec)
		}
	})
}
