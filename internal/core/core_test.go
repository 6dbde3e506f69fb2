package core_test

import (
	"errors"
	"math/rand"
	"testing"

	"beltway/internal/collectors"
	"beltway/internal/core"
	"beltway/internal/gc"
	"beltway/internal/heap"
	"beltway/internal/vm"
)

// testOptions returns a small heap suitable for unit tests.
func testOptions(heapKB int) collectors.Options {
	return collectors.Options{HeapBytes: heapKB * 1024, FrameBytes: 4096}
}

// allConfigs enumerates every collector family at test scale.
func allConfigs(heapKB int) []core.Config {
	o := testOptions(heapKB)
	return []core.Config{
		collectors.BSS(o),
		collectors.BA2(o),
		collectors.BOFM(25, o),
		collectors.BOF(25, o),
		collectors.XX(25, o),
		collectors.XX100(25, o),
		collectors.XX100(50, o),
		collectors.XY(25, 50, o),
		collectors.WithCardBarrier(collectors.XX100(25, o)),
		collectors.XXMOS(25, o),
		collectors.WithMarkRegion(collectors.XX100(25, o)),
		collectors.Immix(o),
		collectors.Appel(o),
		collectors.Fixed(25, o),
		collectors.Appel3(o),
	}
}

func newMutator(t *testing.T, cfg core.Config) (*vm.Mutator, *heap.Registry, *core.Heap) {
	t.Helper()
	types := heap.NewRegistry()
	h, err := core.New(cfg, types)
	if err != nil {
		t.Fatalf("%s: %v", cfg.Name, err)
	}
	m := vm.New(h)
	m.EnableValidation()
	return m, types, h
}

// TestLinkedListSurvivesCollections builds a long linked list under heap
// pressure, forcing many collections; the shadow-graph validator
// (attached via PostGC hooks) verifies the heap after every one, and the
// final pass re-reads every payload through the public API.
func TestLinkedListSurvivesCollections(t *testing.T) {
	const nodes = 3000
	for _, cfg := range allConfigs(384) {
		cfg := cfg
		t.Run(cfg.Name, func(t *testing.T) {
			m, types, h := newMutator(t, cfg)
			node := types.DefineScalar("node", 1, 2)
			err := m.Run(func() {
				head := m.Alloc(node, 0)
				m.SetData(head, 0, 0)
				tail := head
				for i := 1; i < nodes; i++ {
					n := m.Alloc(node, 0)
					m.SetData(n, 0, uint32(i))
					m.SetRef(tail, 0, n)
					if tail != head {
						m.Release(tail)
					}
					tail = n
					// Garbage: a dropped object per step.
					g := m.Alloc(node, 0)
					m.Release(g)
				}
				m.Collect(true)

				cur := head
				for i := 0; i < nodes; i++ {
					if got := m.GetData(cur, 0); got != uint32(i) {
						t.Fatalf("node %d holds %d", i, got)
					}
					if m.RefIsNil(cur, 0) {
						if i != nodes-1 {
							t.Fatalf("list truncated at node %d", i)
						}
						break
					}
					next := m.GetRef(cur, 0)
					if cur != head {
						m.Release(cur)
					}
					cur = next
				}
			})
			if err != nil {
				t.Fatalf("%s: %v", cfg.Name, err)
			}
			if h.Collections() == 0 {
				t.Errorf("%s: no collections happened; test exercised nothing", cfg.Name)
			}
		})
	}
}

// TestOldToYoungPointersRemembered overwrites slots of an old (promoted)
// object to point at freshly allocated young objects, then triggers
// nursery collections: only a correct remembered-set/barrier pipeline
// keeps the young referents alive and re-points the old object's slots.
func TestOldToYoungPointersRemembered(t *testing.T) {
	for _, cfg := range allConfigs(256) {
		cfg := cfg
		t.Run(cfg.Name, func(t *testing.T) {
			m, types, _ := newMutator(t, cfg)
			holder := types.DefineScalar("holder", 8, 0)
			leaf := types.DefineScalar("leaf", 0, 1)
			filler := types.DefineScalar("filler", 0, 15)
			err := m.Run(func() {
				old := m.Alloc(holder, 0)
				// Age the holder: force collections so it is promoted.
				m.Collect(false)
				m.Collect(false)
				for round := 0; round < 30; round++ {
					m.Push()
					for i := 0; i < 8; i++ {
						l := m.Alloc(leaf, 0)
						m.SetData(l, 0, uint32(round*8+i))
						m.SetRef(old, i, l)
					}
					m.Pop() // leaves reachable only through `old`
					// Churn to force nursery collections.
					m.Push()
					for i := 0; i < 400; i++ {
						m.Alloc(filler, 0)
					}
					m.Pop()
					m.Collect(false)
					for i := 0; i < 8; i++ {
						m.Push()
						l := m.GetRef(old, i)
						if got := m.GetData(l, 0); got != uint32(round*8+i) {
							t.Fatalf("round %d slot %d: payload %d", round, i, got)
						}
						m.Pop()
					}
				}
			})
			if err != nil {
				t.Fatalf("%s: %v", cfg.Name, err)
			}
		})
	}
}

// TestRandomMutatorAllConfigs drives every configuration with the same
// seeded random workload: random allocation (scalars and arrays), random
// re-linking, random root drops and forced collections. The validator
// checks heap/shadow isomorphism after every collection.
func TestRandomMutatorAllConfigs(t *testing.T) {
	const ops = 20000
	const maxLive = 1500 // keep live data well under the tightest usable size
	for _, cfg := range allConfigs(1024) {
		cfg := cfg
		t.Run(cfg.Name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(42))
			m, types, h := newMutator(t, cfg)
			node := types.DefineScalar("rnode", 3, 1)
			arr := types.DefineRefArray("rarr")
			buf := types.DefineWordArray("rbuf")

			var live []gc.Handle
			err := m.Run(func() {
				live = append(live, m.Alloc(node, 0))
				for op := 0; op < ops; op++ {
					for len(live) > maxLive {
						i := rng.Intn(len(live))
						m.Release(live[i])
						live[i] = live[len(live)-1]
						live = live[:len(live)-1]
					}
					switch r := rng.Intn(100); {
					case r < 45: // allocate scalar, keep rooted
						h := m.Alloc(node, 0)
						m.SetData(h, 0, uint32(op))
						live = append(live, h)
					case r < 55: // allocate ref array
						h := m.Alloc(arr, 1+rng.Intn(12))
						live = append(live, h)
					case r < 62: // allocate data array (pure garbage)
						h := m.Alloc(buf, rng.Intn(64))
						m.Release(h)
					case r < 85: // random re-link
						src := live[rng.Intn(len(live))]
						dst := live[rng.Intn(len(live))]
						ti := m.TypeOf(src)
						var slots int
						if ti == node {
							slots = 3
						} else if ti == arr {
							slots = m.Length(src)
						}
						if slots > 0 {
							if rng.Intn(8) == 0 {
								m.SetRefNil(src, rng.Intn(slots))
							} else {
								m.SetRef(src, rng.Intn(slots), dst)
							}
						}
					case r < 97: // drop a root (object may still be linked)
						if len(live) > 4 {
							i := rng.Intn(len(live))
							m.Release(live[i])
							live[i] = live[len(live)-1]
							live = live[:len(live)-1]
						}
					default: // forced collection
						m.Collect(rng.Intn(10) == 0)
					}
				}
			})
			if errors.Is(err, gc.ErrOutOfMemory) {
				t.Fatalf("%s: unexpected OOM: %v", cfg.Name, err)
			}
			if err != nil {
				t.Fatalf("%s: %v", cfg.Name, err)
			}
			if h.Collections() == 0 {
				t.Errorf("%s: workload never collected", cfg.Name)
			}
		})
	}
}

// TestImmortalReferencesIntoHeap stores heap pointers in boot-image
// objects; both barrier styles (remembered boot stores for the frame
// barrier, full boot scans for the boundary barrier) must keep the
// referents alive and updated.
func TestImmortalReferencesIntoHeap(t *testing.T) {
	for _, cfg := range allConfigs(384) {
		cfg := cfg
		t.Run(cfg.Name, func(t *testing.T) {
			m, types, _ := newMutator(t, cfg)
			table := types.DefineScalar("boottab", 4, 0)
			leaf := types.DefineScalar("bleaf", 0, 1)
			filler := types.DefineScalar("bfill", 0, 31)
			err := m.Run(func() {
				boot := m.AllocImmortal(table, 0)
				for round := 0; round < 10; round++ {
					for i := 0; i < 4; i++ {
						m.Push()
						l := m.Alloc(leaf, 0)
						m.SetData(l, 0, uint32(round*4+i))
						m.SetRef(boot, i, l)
						m.Pop()
					}
					m.Push()
					for i := 0; i < 600; i++ {
						m.Alloc(filler, 0)
					}
					m.Pop()
					m.Collect(false)
					for i := 0; i < 4; i++ {
						m.Push()
						l := m.GetRef(boot, i)
						if got := m.GetData(l, 0); got != uint32(round*4+i) {
							t.Fatalf("round %d slot %d: payload %d", round, i, got)
						}
						m.Pop()
					}
				}
			})
			if err != nil {
				t.Fatalf("%s: %v", cfg.Name, err)
			}
		})
	}
}
