package harness

import (
	"strings"
	"testing"

	"beltway/internal/server"
	"beltway/internal/workload"
)

// TestValidateEnv covers every rejected flag combination and its valid
// neighbors.
func TestValidateEnv(t *testing.T) {
	cases := []struct {
		name        string
		env         Env
		wantErr     bool
		wantMessage string
	}{
		{name: "zero env", env: Env{}},
		{name: "classic single mutator", env: Env{Mutators: 1}},
		{name: "sharded plain", env: Env{Mutators: 8}},
		{name: "adaptive flat", env: Env{Mutators: 1, Policy: "slo"}},
		{name: "adaptive with params", env: Env{Policy: "throughput:target=0.1"}},
		{name: "faults flat", env: Env{FaultSeed: 3}},

		{name: "negative mutators", env: Env{Mutators: -2},
			wantErr: true, wantMessage: "-mutators must be at least 1"},
		{name: "bogus policy", env: Env{Policy: "bogus"},
			wantErr: true, wantMessage: "-adapt"},
		{name: "adapt sharded", env: Env{Mutators: 2, Policy: "slo"},
			wantErr: true, wantMessage: "single-mutator only"},
		{name: "adapt sharded wide", env: Env{Mutators: 8, Policy: "throughput"},
			wantErr: true, wantMessage: "single-mutator only"},
		{name: "faults sharded", env: Env{Mutators: 2, FaultSeed: 7},
			wantErr: true, wantMessage: "fault injection (-fault-seed) is single-mutator only"},
		{name: "adapt and faults sharded", env: Env{Mutators: 4, Policy: "slo", FaultSeed: 1},
			wantErr: true, wantMessage: "single-mutator only"},
		{name: "adapt and faults flat at one mutator", env: Env{Mutators: 1, Policy: "slo", FaultSeed: 9}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := ValidateEnv(tc.env)
			if tc.wantErr {
				if err == nil {
					t.Fatalf("ValidateEnv(%+v) = nil, want error", tc.env)
				}
				if !strings.Contains(err.Error(), tc.wantMessage) {
					t.Fatalf("error %q does not contain %q", err, tc.wantMessage)
				}
				return
			}
			if err != nil {
				t.Fatalf("ValidateEnv(%+v) = %v, want nil", tc.env, err)
			}
		})
	}
}

// TestValidateEnvMatchesRuntime: a run makes the gate's check itself,
// with the gate's message, on both workloads.
func TestValidateEnvMatchesRuntime(t *testing.T) {
	for _, tweak := range []func(*Env){
		func(e *Env) { e.Mutators = 2; e.Policy = "slo" },
		func(e *Env) { e.Mutators = 2; e.FaultSeed = 7 },
	} {
		env := testEnv()
		env.Scale = 0.05
		tweak(&env)
		gate := ValidateEnv(env)
		if gate == nil {
			t.Fatalf("gate accepts %+v", env)
		}
		for _, w := range []Workload{Bench(workload.Get("db")), Server(server.Scaled(0.05), server.SLO{})} {
			if _, err := Run(AppelConfig(env)(1<<20), w, env); err == nil || err.Error() != gate.Error() {
				t.Fatalf("%s under %+v: run error %v, gate error %v", w.Name(), env, err, gate)
			}
		}
	}
}
