package harness

import (
	"flag"

	"beltway/internal/workload"
)

// BindEnvFlags declares on fs the flags that make up an Env — the one
// declaration every front end that runs workloads shares — and returns
// the function that, once fs is parsed, builds the Env (EnvForScale of
// -scale, which also fixes the frame size and physical memory, then the
// other flags) and validates it.
func BindEnvFlags(fs *flag.FlagSet) func() (Env, error) {
	var (
		scale     = fs.Float64("scale", 1.0, "workload scale")
		seed      = fs.Int64("seed", workload.DefaultParams().Seed, "workload PRNG seed")
		pretenure = fs.Bool("pretenure", false, "route known-long-lived allocation sites to older belts")
		mutators  = fs.Int("mutators", 1,
			"mutator lanes per run; >1 shards every run over N private heaps (times are the simulated N-core makespan)")
		adapt = fs.String("adapt", "",
			"adaptive policy objective: slo, with an optional SLO (e.g. slo:max=4e6); empty = static (paper behavior)")
	)
	return func() (Env, error) {
		env := EnvForScale(*scale)
		env.Seed = *seed
		env.Pretenure = *pretenure
		env.Mutators = *mutators
		env.Policy = *adapt
		return env, ValidateEnv(env)
	}
}
