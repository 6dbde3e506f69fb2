package harness

import (
	"flag"

	"beltway/internal/stats"
	"beltway/internal/workload"
)

// BindEnvFlags declares on fs the flags that make up an Env — the one
// declaration every front end that runs workloads shares — and returns
// the function that, once fs is parsed, builds the Env (EnvForScale of
// -scale, then each explicit override) and validates it.
func BindEnvFlags(fs *flag.FlagSet) func() (Env, error) {
	var (
		scale     = fs.Float64("scale", 1.0, "workload scale")
		seed      = fs.Int64("seed", workload.DefaultParams().Seed, "workload PRNG seed")
		frameKB   = fs.Int("frame", 0, "frame size in KB (power of two; 0 = auto from scale)")
		physMB    = fs.Int("physmem", -1, "modelled physical memory in MB (0 = no paging, -1 = auto from scale)")
		pretenure = fs.Bool("pretenure", false, "route known-long-lived allocation sites to older belts")
		budget    = fs.Float64("budget", 0,
			"per-run cost budget in nominal seconds of simulated time (0 = none); exceeded runs abort deterministically")
		degrade = fs.Bool("degrade", false,
			"enable the graceful-degradation ladder: emergency full-heap collection and one retry before any run reports OOM")
		mutators = fs.Int("mutators", 1,
			"mutator lanes per run; >1 shards every run over N private heaps (times are the simulated N-core makespan)")
		faultSeed = fs.Int64("fault-seed", 0,
			"run under a deterministic fault-injection schedule derived from this seed (chaos testing; 0 = off)")
		adapt = fs.String("adapt", "",
			"adaptive policy objective: slo | throughput, with optional params (e.g. throughput:target=0.1); empty = static (paper behavior)")
	)
	return func() (Env, error) {
		env := EnvForScale(*scale)
		env.Seed = *seed
		if *frameKB > 0 {
			env.FrameBytes = *frameKB * 1024
		}
		if *physMB >= 0 {
			env.PhysMemBytes = *physMB << 20
		}
		env.Pretenure = *pretenure
		if *budget > 0 {
			env.CostBudget = *budget * stats.CyclesPerSecond
		}
		env.Degrade = *degrade
		env.Mutators = *mutators
		env.FaultSeed = *faultSeed
		env.Policy = *adapt
		return env, ValidateEnv(env)
	}
}
