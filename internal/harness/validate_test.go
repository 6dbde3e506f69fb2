package harness

import (
	"flag"
	"io"
	"strings"
	"testing"

	"beltway/internal/server"
	"beltway/internal/workload"
)

// TestValidateEnv covers every rejected flag combination and its valid
// neighbors, each a tweak of a valid Env.
func TestValidateEnv(t *testing.T) {
	cases := []struct {
		name        string
		tweak       func(*Env)
		wantErr     bool
		wantMessage string
	}{
		{name: "scale env", tweak: func(*Env) {}},
		{name: "classic single mutator", tweak: func(e *Env) { e.Mutators = 1 }},
		{name: "sharded plain", tweak: func(e *Env) { e.Mutators = 8 }},
		{name: "adaptive flat", tweak: func(e *Env) { e.Mutators, e.Policy = 1, "slo" }},
		{name: "adaptive with params", tweak: func(e *Env) { e.Policy = "slo:max=4000" }},
		{name: "smallest frame", tweak: func(e *Env) { e.FrameBytes = 256 }},

		{name: "zero env", tweak: func(e *Env) { *e = Env{} },
			wantErr: true, wantMessage: "-scale must be positive"},
		{name: "negative scale", tweak: func(e *Env) { e.Scale = -1 },
			wantErr: true, wantMessage: "-scale must be positive"},
		{name: "frame not a power of two", tweak: func(e *Env) { e.FrameBytes = 3072 },
			wantErr: true, wantMessage: "Env.FrameBytes: core: frame size 3072 not a power of two"},
		{name: "frame too small", tweak: func(e *Env) { e.FrameBytes = 128 },
			wantErr: true, wantMessage: "Env.FrameBytes: core: frame size 128"},
		{name: "negative mutators", tweak: func(e *Env) { e.Mutators = -2 },
			wantErr: true, wantMessage: "-mutators must be at least 1"},
		{name: "bogus policy", tweak: func(e *Env) { e.Policy = "bogus" },
			wantErr: true, wantMessage: "-adapt"},
		{name: "adapt sharded", tweak: func(e *Env) { e.Mutators, e.Policy = 2, "slo" },
			wantErr: true, wantMessage: "single-mutator only"},
		{name: "adapt sharded wide", tweak: func(e *Env) { e.Mutators, e.Policy = 8, "slo:max=4000" },
			wantErr: true, wantMessage: "single-mutator only"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			env := EnvForScale(0.1)
			tc.tweak(&env)
			checkValid(t, env, ValidateEnv(env), tc.wantErr, tc.wantMessage)
		})
	}
}

// TestBindEnvFlagsValidates: every front end's flags reach ValidateEnv,
// so a scale no run accepts fails at flag-parse time, not inside the
// first minimum-heap search. The frame size follows -scale: -frame and
// -physmem are not flags.
func TestBindEnvFlagsValidates(t *testing.T) {
	cases := []struct {
		args        []string
		wantErr     bool
		wantMessage string
	}{
		{args: nil},
		{args: []string{"-scale", "0.25", "-frame", "4"},
			wantErr: true, wantMessage: "flag provided but not defined: -frame"},
		{args: []string{"-frame", "3"},
			wantErr: true, wantMessage: "flag provided but not defined: -frame"},
		{args: []string{"-physmem", "0"},
			wantErr: true, wantMessage: "flag provided but not defined: -physmem"},
		{args: []string{"-scale", "0"},
			wantErr: true, wantMessage: "-scale must be positive (got 0)"},
		{args: []string{"-scale", "-0.5"},
			wantErr: true, wantMessage: "-scale must be positive"},
		{args: []string{"-mutators", "2", "-adapt", "slo"},
			wantErr: true, wantMessage: "single-mutator only"},
	}
	for _, tc := range cases {
		t.Run(strings.Join(tc.args, " "), func(t *testing.T) {
			fs := flag.NewFlagSet("env", flag.ContinueOnError)
			fs.SetOutput(io.Discard)
			build := BindEnvFlags(fs)
			var env Env
			err := fs.Parse(tc.args)
			if err == nil {
				env, err = build()
			}
			checkValid(t, env, err, tc.wantErr, tc.wantMessage)
		})
	}
}

func checkValid(t *testing.T, env Env, err error, wantErr bool, wantMessage string) {
	t.Helper()
	if !wantErr {
		if err != nil {
			t.Fatalf("%+v: %v, want nil", env, err)
		}
		return
	}
	if err == nil {
		t.Fatalf("%+v: nil, want error", env)
	}
	if !strings.Contains(err.Error(), wantMessage) {
		t.Fatalf("error %q does not contain %q", err, wantMessage)
	}
}

// TestValidateEnvMatchesRuntime: a run makes the gate's check itself,
// with the gate's message, on both workloads.
func TestValidateEnvMatchesRuntime(t *testing.T) {
	env := testEnv()
	env.Scale = 0.05
	env.Mutators, env.Policy = 2, "slo"
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
