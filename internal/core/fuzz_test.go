package core_test

import (
	"fmt"
	"math/rand"
	"testing"

	"beltway/internal/check"
	"beltway/internal/core"
	"beltway/internal/gc"
	"beltway/internal/heap"
	"beltway/internal/vm"
)

// TestRandomConfigurations generates dozens of random configurations and
// drives each with a random mutator under the shadow-graph oracle and
// the structural invariant checker. This is the framework-generality
// claim put under fuzz: ANY legal belt structure must collect correctly.
func TestRandomConfigurations(t *testing.T) {
	const configs = 40
	for seed := 0; seed < configs; seed++ {
		seed := seed
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(seed)))
			cfg := check.RandomConfig(rng, (384+rng.Intn(384))*1024, 4096)
			if err := cfg.Validate(); err != nil {
				t.Fatalf("generated invalid config: %v\n%+v", err, cfg)
			}
			types := heap.NewRegistry()
			h, err := core.New(cfg, types)
			if err != nil {
				t.Fatal(err)
			}
			var invErr error
			checkEvery := 0
			m := vm.New(h)
			m.EnableValidation()
			// The validator replaced hooks; layer the invariant check on
			// top of its PostGC by re-wrapping.
			if hk, ok := interface{}(h).(gc.Hookable); ok {
				v := m.V
				hk.SetHooks(gc.Hooks{PostGC: func() {
					if err := v.Check(); err != nil {
						panic(err)
					}
					checkEvery++
					if checkEvery%4 == 0 && invErr == nil {
						invErr = h.CheckInvariants()
					}
				}})
			}

			node := types.DefineScalar("fz", 2, 2)
			arr := types.DefineRefArray("fzarr")
			var live []gc.Handle
			err = m.Run(func() {
				live = append(live, m.Alloc(node, 0))
				for op := 0; op < 12000; op++ {
					switch r := rng.Intn(12); {
					case r < 6:
						live = append(live, m.Alloc(node, 0))
					case r == 6:
						live = append(live, m.Alloc(arr, 1+rng.Intn(20)))
					case r == 7 && len(live) > 2:
						src, dst := live[rng.Intn(len(live))], live[rng.Intn(len(live))]
						slots := 2
						if m.TypeOf(src) == arr {
							slots = m.Length(src)
						}
						if slots > 0 {
							m.SetRef(src, rng.Intn(slots), dst)
						}
					case r == 8:
						live = append(live, m.AllocPretenuredGlobal(node, 0))
					case r == 9 && rng.Intn(6) == 0:
						m.Collect(rng.Intn(8) == 0)
					default:
						if len(live) > 4 {
							i := rng.Intn(len(live))
							m.Release(live[i])
							live[i] = live[len(live)-1]
							live = live[:len(live)-1]
						}
					}
					for len(live) > 400 {
						i := rng.Intn(len(live))
						m.Release(live[i])
						live[i] = live[len(live)-1]
						live = live[:len(live)-1]
					}
				}
			})
			if err != nil {
				// Random tight configs may legitimately OOM; that is a
				// valid outcome, not a correctness failure.
				t.Logf("%s: %v", cfg.Name, err)
			}
			if invErr != nil {
				t.Fatalf("%s: %v", cfg.Name, invErr)
			}
		})
	}
}
