package server

import (
	"reflect"
	"strings"
	"testing"
)

// FuzzParseSLO holds the -slo parser to its trust boundary: any input is
// an SLO or a "server:" error, never a panic, and an accepted SLO renders
// back (String) to a spelling that parses to the same SLO.
func FuzzParseSLO(f *testing.F) {
	for _, s := range []string{
		// The spellings of CI, README and EXPERIMENTS.md.
		"p99=10e3,p99.9=1e6,max=5e6", "p99=10e3,max=5e6", "p99=10000,p999=1000000,max=5000000",
		"p99=500000,p99.9=2e6,max=1e7", "p99.9=1e6", "max=4000",
		// What the unit tests reject.
		"", "p99", "p42=1", "p99=-5", "p99=NaN", "p99=+Inf", "p99=1,p99=2", "p99=1,", " p50 = 7 ",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		slo, err := ParseSLO(s)
		if err != nil {
			if !strings.HasPrefix(err.Error(), "server: ") {
				t.Fatalf("ParseSLO(%q) error %q is not a server: error", s, err)
			}
			return
		}
		back, err := ParseSLO(slo.String())
		if err != nil {
			t.Fatalf("ParseSLO(%q) = %+v, whose String %q does not parse: %v", s, slo, slo.String(), err)
		}
		if !reflect.DeepEqual(back, slo) {
			t.Fatalf("ParseSLO(%q) = %+v, but its String %q parses to %+v", s, slo, slo.String(), back)
		}
	})
}
