package policy_test

import (
	"reflect"
	"testing"

	"beltway/internal/core"
	"beltway/internal/gc"
	"beltway/internal/policy"
)

// TestOccupancyRevertRestoresInitialKnobs drives the controller on
// synthetic collections under slo:max=4000, a pause budget of 2000: a
// pause over budget grows belt 0 to Appel's shape, a full collection
// that leaves live data above three quarters of usable memory reverts
// every knob to its initial value, and the grow lever stays retired for
// the rest of the run. No committed experiment reaches the revert.
func TestOccupancyRevertRestoresInitialKnobs(t *testing.T) {
	pc, err := policy.Parse("slo:max=4000")
	if err != nil {
		t.Fatal(err)
	}
	c := policy.New(pc)
	initial := []core.BeltSpec{
		{IncrementFrac: 0.25, ReserveFrac: 0.1, PromoteTo: 1},
		{IncrementFrac: 1, PromoteTo: 1},
	}
	belts := append([]core.BeltSpec(nil), initial...)
	const heapBytes, reserveBytes = 1 << 20, 1 << 18
	// collect hands the controller collection n's knobs, as the engine
	// does, and applies the updates it returns.
	collect := func(n uint64, full bool, pause float64, liveBytes int) []core.KnobUpdate {
		t.Helper()
		ups := c.Tune(core.TuneInput{
			GC: n, Now: float64(n) * 1e4, Full: full, End: gc.GCEndInfo{Duration: pause},
			HeapBytes: heapBytes, ReserveBytes: reserveBytes, LiveBytes: liveBytes,
			Belts: append([]core.BeltSpec(nil), belts...),
		})
		for _, u := range ups {
			switch u.Knob {
			case core.KnobIncrementFrac:
				belts[u.Belt].IncrementFrac = u.Value
			case core.KnobReserveFrac:
				belts[u.Belt].ReserveFrac = u.Value
			default:
				t.Fatalf("collection %d: update of knob %v", n, u.Knob)
			}
		}
		return ups
	}

	// A minor pause of 3000 is over budget, and live data is small.
	ups := collect(1, false, 3000, heapBytes/10)
	want := []core.KnobUpdate{
		{Knob: core.KnobIncrementFrac, Belt: 0, Value: 1},
		{Knob: core.KnobReserveFrac, Belt: 0, Value: 0},
	}
	if !reflect.DeepEqual(ups, want) {
		t.Fatalf("over-budget pause: updates %+v, want %+v", ups, want)
	}
	if d := c.Drift(); d != "b0.frac 0.25->1 b0.reserve 0.1->0" {
		t.Errorf("after growth: Drift() = %q", d)
	}

	// A full collection leaves live data at 0.8 of usable memory.
	ups = collect(2, true, 100, 4*(heapBytes-reserveBytes)/5)
	if !reflect.DeepEqual(belts, initial) {
		t.Fatalf("occupancy squeeze: knobs %+v after updates %+v, want the initial %+v", belts, ups, initial)
	}
	reverts := 0
	for _, d := range c.Decisions() {
		if d.GC == 2 {
			if d.Reason != policy.ReasonOccupancyRevert {
				t.Errorf("collection 2: decision %+v, want reason occupancy-revert", d)
			}
			reverts++
		}
	}
	if reverts != len(ups) || reverts == 0 {
		t.Errorf("collection 2: %d occupancy-revert decisions for %d updates", reverts, len(ups))
	}

	// The lever is retired: another pause over budget grows nothing.
	if ups := collect(3, false, 3000, heapBytes/10); len(ups) != 0 {
		t.Errorf("over-budget pause after the revert: updates %+v, want none", ups)
	}
	if d := c.Drift(); d != "" {
		t.Errorf("after the revert: Drift() = %q, want \"\"", d)
	}
}
