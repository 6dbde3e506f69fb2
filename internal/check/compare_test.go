package check

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestCompare holds the one comparison rule to each verdict it can
// reach, and to reporting nothing where the rule says two outcomes agree
// (a guard against a battery passing vacuously).
func TestCompare(t *testing.T) {
	type edit func(*Outcome)
	same := func(*Outcome) {}
	oomAt := func(n int) edit {
		return func(o *Outcome) { o.OOM, o.Serials, o.Fingerprint = true, o.Serials[:n], "" }
	}
	serials := func(s ...uint32) edit { return func(o *Outcome) { o.Serials = s } }
	graph := func(g string) edit { return func(o *Outcome) { o.Fingerprint = g } }
	failed := func(err string) edit { return func(o *Outcome) { o.Err = err } }
	both := func(es ...edit) edit {
		return func(o *Outcome) {
			for _, e := range es {
				e(o)
			}
		}
	}
	cases := []struct {
		name string
		a, b edit     // applied to a run that completed with serials 1 2 3 and graph "x\ny"
		want []string // rendered divergences, in order
	}{
		{"identical", same, same, nil},
		{"collections are policy", same, func(o *Outcome) { o.Collections = 9 }, nil},
		{"oom mismatch", same, oomAt(3),
			[]string{"[oom] a vs b: OOM=false against OOM=true"}},
		{"an oom explains the shorter stream", same, oomAt(2),
			[]string{"[oom] a vs b: OOM=false against OOM=true"}},
		{"both oom, one a prefix of the other", oomAt(3), oomAt(1), nil},
		{"shorter stream, no oom to explain it", same, serials(1, 2),
			[]string{"[serials] a vs b: stream lengths 3 vs 2 with no OOM to explain the shorter"}},
		{"the longer side's oom explains nothing", oomAt(3), serials(1, 2),
			[]string{"[oom] a vs b: OOM=true against OOM=false",
				"[serials] a vs b: stream lengths 3 vs 2 with no OOM to explain the shorter"}},
		{"serial mismatch mid-stream", same, serials(1, 9, 3),
			[]string{"[serials] a vs b: allocation 1: serial 2 vs 9"}},
		{"serial mismatch inside an oom prefix", same, both(serials(1, 9, 3), oomAt(2)),
			[]string{"[oom] a vs b: OOM=false against OOM=true",
				"[serials] a vs b: allocation 1: serial 2 vs 9"}},
		{"graphs differ between finishers", same, graph("x\nz"),
			[]string{`[graph] a vs b: line 1: "y" vs "z"`}},
		{"graphs differ in length", same, graph("x"),
			[]string{"[graph] a vs b: lengths 2 vs 1 lines"}},
		{"graph ignored when either side oomed", oomAt(3), both(oomAt(3), graph("stale")), nil},
		{"err on the right", same, failed("boom"), []string{"[replay] b: boom"}},
		{"err on the left", failed("boom"), same, []string{"[replay] a: boom"}},
		{"err on both, nothing else compared", failed("boom"), both(failed("bang"), serials()),
			[]string{"[replay] a: boom", "[replay] b: bang"}},
	}
	for _, c := range cases {
		a := Outcome{Name: "a", Serials: []uint32{1, 2, 3}, Fingerprint: "x\ny"}
		b := a
		b.Name = "b"
		c.a(&a)
		c.b(&b)
		var got []string
		for _, d := range compare(a, b, "OOM=%v against OOM=%v") {
			got = append(got, d.String())
		}
		if strings.Join(got, "\n") != strings.Join(c.want, "\n") {
			t.Errorf("%s:\n got %q\nwant %q", c.name, got, c.want)
		}
	}
}

// TestDivergenceRenderingGolden holds what a person debugging a fuzz
// failure reads — fields, names, order and detail text of every battery's
// report — to testdata/divergence_rendering.golden, which was generated
// by the code before the batteries shared one run, one comparison and
// one result type: the two mutant batteries of mutation_test.go as the
// flat oracle reports them, and a sharded run with hand-broken outcomes.
func TestDivergenceRenderingGolden(t *testing.T) {
	var b strings.Builder
	flat := RunScript(barrierStressScript(), mutantBattery(t, "25.25", 2))
	b.WriteString("== flat: DebugDropBarrierEvery 2 on 25.25\n" + flat.String())
	flat = RunScript(invariantOnlyScript(), mutantBattery(t, "25.25.100", 1))
	b.WriteString("== flat: DebugDropBarrierEvery 1 on 25.25.100\n" + flat.String())

	lane := func(mode string, i int, o Outcome) Outcome {
		o.Name = "25.25/" + mode + "/shard" + string(rune('0'+i))
		return o
	}
	ok := Outcome{Serials: []uint32{5, 6, 7}, Fingerprint: "x\ny"}
	par := schedule{makespan: 0.3}
	ser := schedule{makespan: math.Nextafter(0.3, 1)}
	for i, o := range []Outcome{
		{Serials: []uint32{5, 6, 7}, Fingerprint: "x\nz"},
		{OOM: true, Serials: []uint32{5, 6}},
		{Err: "validator: boom"},
		{Err: "same on both"},
		{Serials: []uint32{5, 8, 7}, Fingerprint: "x\ny"},
	} {
		p := ok
		if o.Err == "same on both" {
			p = o
		}
		par.lanes = append(par.lanes, lane("par", i, p))
		ser.lanes = append(ser.lanes, lane("ser", i, o))
	}
	var sharded ShardedRun
	sharded.Divergences = diffSchedules("25.25", par, ser)
	b.WriteString("== sharded: hand-broken serial schedule\n" + sharded.String())

	want, err := os.ReadFile(filepath.Join("testdata", "divergence_rendering.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if b.String() != string(want) {
		t.Errorf("rendered reports moved.\n--- got\n%s--- want\n%s", b.String(), want)
	}
}
