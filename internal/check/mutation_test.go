package check

import (
	"strings"
	"testing"

	"beltway/internal/collectors"
	"beltway/internal/core"
)

// barrierStressScript builds a deterministic worst case for the write
// barrier: a promoted anchor repeatedly pointed at fresh nursery objects
// with a nursery collection after every store, so each young object
// survives only if the store was remembered.
func barrierStressScript() Script {
	s := Script{
		{Kind: OpAllocGlobal}, // the anchor, live[0]
		{Kind: OpCollectFull}, // promote it out of the nursery
	}
	// The live list is [anchor, loaded...] with exactly 1+i entries at
	// the head of iteration i, so the modular picks are deterministic:
	// 0 is the anchor, 1+i the fresh young node.
	//
	// The filler allocations matter: they make the nursery belt worth
	// collecting on its own (Collect(false) otherwise cascades into the
	// anchor's belt, and a condemned anchor is rescanned during copying,
	// healing any dropped remember). With a nursery-only collection the
	// young object survives solely through the remembered set; if the
	// barrier dropped it, the following GetRef touches a dead object in
	// an unmapped from-space frame.
	for i := 0; i < 12; i++ {
		idx := byte(1 + i)
		s = append(s,
			Op{Kind: OpAlloc},                      // young node -> live[1+i]
			Op{Kind: OpSetRef, A: 0, B: 0, C: idx}, // anchor.ref[0] = young
			Op{Kind: OpRelease, A: idx},            // young reachable only through anchor
		)
		for f := 0; f < 8; f++ { // ~19 KiB of filler garbage
			s = append(s,
				Op{Kind: OpAllocLarge},
				Op{Kind: OpRelease, A: idx},
			)
		}
		s = append(s,
			Op{Kind: OpCollect},            // nursery-only collection
			Op{Kind: OpGetRef, A: 0, B: 0}, // load it back; stays live
		)
	}
	return s
}

// mutantBattery is the clean semi-space reference beside spec with every
// Nth interesting-pointer remember dropped (DebugDropBarrierEvery).
func mutantBattery(t *testing.T, spec string, every int) []core.Config {
	t.Helper()
	clean, err := collectors.Parse("ss", collectors.Options{})
	if err != nil {
		t.Fatal(err)
	}
	mutant, err := collectors.Parse(spec, collectors.Options{})
	if err != nil {
		t.Fatal(err)
	}
	mutant.Name = spec + "-mutant"
	mutant.DebugDropBarrierEvery = every
	return []core.Config{clean, mutant}
}

// TestOracleCatchesBarrierMutation is the subsystem's mutation test: a
// deliberately injected barrier bug (drop every 2nd interesting-pointer
// remember, via the DebugDropBarrierEvery knob) must be caught by the
// differential oracle and minimized to a small reproducer. If this test
// fails, the oracle has a blind spot for exactly the class of bug it
// exists to find.
func TestOracleCatchesBarrierMutation(t *testing.T) {
	script := barrierStressScript()
	cfgs := mutantBattery(t, "25.25", 2)
	run := RunScript(script, cfgs)
	if !run.Failed() {
		t.Fatal("oracle did not catch the injected barrier bug")
	}
	t.Logf("caught:\n%s", run.String())

	res := Minimize(script, cfgs, OracleFails)
	if !OracleFails(res.Script, res.Configs) {
		t.Fatal("minimized reproducer no longer fails")
	}
	if len(res.Script) > 20 {
		t.Fatalf("minimized reproducer has %d ops, want <= 20:\n%s", len(res.Script), res.Script)
	}
	t.Logf("minimized to %d ops, %d configs in %d evals:\n%s",
		len(res.Script), len(res.Configs), res.Evals, res.Script)
	// Deterministic, like the synthetic case: an equal count says the
	// candidate order did not move.
	if res.Evals != 162 {
		t.Errorf("minimizing took %d predicate evaluations, want 162", res.Evals)
	}

	// The sane sibling must pass: same script, same battery, no knob.
	if run := RunScript(script, mutantBattery(t, "25.25", 0)); run.Failed() {
		t.Fatalf("un-mutated battery diverges:\n%s", run.String())
	}
}

// invariantOnlyScript leaves the object graph right and only the
// remembered sets wrong under a barrier that drops every remember; see
// TestOracleReportsInvariantFailure.
func invariantOnlyScript() Script {
	script := Script{
		{Kind: OpAllocGlobal}, // the anchor, live[0]
		{Kind: OpCollectFull}, // nursery -> belt 1
		{Kind: OpCollectFull}, // belt 1 -> belt 2
		{Kind: OpAllocGlobal}, // the target, live[1]
		{Kind: OpCollectFull}, // nursery -> belt 1; the anchor stays on belt 2
		{Kind: OpSetRef, A: 0, B: 0, C: 1},
	}
	for f := 0; f < 8; f++ { // filler: make the nursery worth collecting alone
		script = append(script, Op{Kind: OpAllocLarge}, Op{Kind: OpRelease, A: 2})
	}
	return append(script, Op{Kind: OpCollect})
}

// TestOracleReportsInvariantFailure pins the oracle's second net: a
// barrier bug that leaves the object graph right and only the remembered
// sets wrong. A twice-promoted anchor is pointed at a once-promoted
// target (an interesting pointer, whose remember the mutant drops), and
// only the nursery is collected afterwards: the target does not move, so
// the shadow graph and every cross-configuration comparison still agree,
// and the post-collection invariant check alone turns the missing entry
// into a divergence — before a later collection turns it into a lost
// object.
func TestOracleReportsInvariantFailure(t *testing.T) {
	script := invariantOnlyScript()
	run := RunScript(script, mutantBattery(t, "25.25.100", 1))
	if !run.Failed() {
		t.Fatal("oracle did not report the dropped remember")
	}
	for _, d := range run.Divergences {
		if d.Field != "replay" || !strings.Contains(d.Detail, "invariants: core: missing remset entry") {
			t.Errorf("divergence is not the invariant check's: %v", d)
		}
	}
	if run := RunScript(script, mutantBattery(t, "25.25.100", 0)); run.Failed() {
		t.Fatalf("un-mutated battery diverges:\n%s", run.String())
	}
}
