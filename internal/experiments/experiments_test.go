package experiments

import (
	"strings"
	"testing"

	"beltway/internal/harness"
	"beltway/internal/server"
	"beltway/internal/workload"
)

// tinySuite runs experiments on two benchmarks at small scale so the
// whole registry can be exercised in a few seconds.
func tinySuite() *Suite {
	return New(Opts{
		Env:    harness.EnvForScale(0.1),
		Points: 3,
		Benchmarks: []*workload.Benchmark{
			workload.Get("jess"), workload.Get("javac"),
		},
	})
}

func TestRegistryComplete(t *testing.T) {
	want := []string{"table1", "fig1", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "ablations", "mos"}
	reg := Registry()
	if len(reg) != len(want) {
		t.Fatalf("registry has %d experiments, want %d", len(reg), len(want))
	}
	for i, id := range want {
		if reg[i].ID != id {
			t.Errorf("registry[%d] = %s, want %s", i, reg[i].ID, id)
		}
		if Get(id) == nil {
			t.Errorf("Get(%q) = nil", id)
		}
		if reg[i].Description == "" || reg[i].Run == nil {
			t.Errorf("%s: incomplete registration", id)
		}
	}
	if Get("fig99") != nil {
		t.Error("Get of unknown id should be nil")
	}
}

func TestAllExperimentsProduceTables(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment")
	}
	s := tinySuite()
	for _, e := range Registry() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			tables, err := e.Run(s)
			if err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			if len(tables) == 0 {
				t.Fatalf("%s produced no tables", e.ID)
			}
			for _, tb := range tables {
				if tb.Title == "" || len(tb.Headers) == 0 || len(tb.Rows) == 0 {
					t.Errorf("%s: degenerate table %q", e.ID, tb.Title)
				}
				for _, row := range tb.Rows {
					if len(row) != len(tb.Headers) {
						t.Errorf("%s: ragged row in %q", e.ID, tb.Title)
						break
					}
				}
				if tb.String() == "" {
					t.Errorf("%s: empty rendering", e.ID)
				}
			}
		})
	}
}

func TestResultCachingAcrossFigures(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two figures")
	}
	var feed progressFeed
	s := tinySuite()
	s.opts.Progress = feed.add
	s = New(s.opts)
	if _, err := s.Figure9(); err != nil {
		t.Fatal(err)
	}
	_, n := feed.executed()
	// Figure 10 uses the identical collector trio: no new runs.
	if _, err := s.Figure10(); err != nil {
		t.Fatal(err)
	}
	if _, m := feed.executed(); m != n {
		t.Errorf("Figure10 executed %d more runs; the engine should remember the whole trio", m-n)
	}
	// Figure 8 shares Appel and Beltway 25.25.100 but adds Beltway 25.25.
	if _, err := s.Figure8(); err != nil {
		t.Fatal(err)
	}
	_, m := feed.executed()
	perCollector := len(s.opts.Benchmarks) * s.opts.Points
	if m-n != perCollector {
		t.Errorf("Figure8 executed %d runs, want exactly one collector's worth (%d)",
			m-n, perCollector)
	}
}

func TestTable1ReportsAllBenchmarks(t *testing.T) {
	if testing.Short() {
		t.Skip("table1 does min-heap searches")
	}
	s := tinySuite()
	tables, err := s.Table1()
	if err != nil {
		t.Fatal(err)
	}
	tb := tables[0]
	if len(tb.Rows) != len(s.opts.Benchmarks) {
		t.Fatalf("table1 has %d rows, want %d", len(tb.Rows), len(s.opts.Benchmarks))
	}
	for _, row := range tb.Rows {
		if row[0] != "jess" && row[0] != "javac" {
			t.Errorf("unexpected benchmark row %q", row[0])
		}
		if strings.TrimSpace(row[1]) == "" {
			t.Error("empty min heap cell")
		}
	}
}

// TestServerWorkloadFollowsSeed: -exp server and -exp adapt draw their
// request stream from Env.Seed, as the benchmarks draw theirs, and the
// default seed is the server's own, so the default tables stay put.
func TestServerWorkloadFollowsSeed(t *testing.T) {
	s := tinySuite()
	if _, sc := s.serverWorkload(); sc.Seed != server.Default().Seed {
		t.Fatalf("default env: request seed %d, want %d", sc.Seed, server.Default().Seed)
	}
	s.opts.Env.Seed = 7
	if _, sc := s.serverWorkload(); sc.Seed != 7 {
		t.Fatalf("Env.Seed 7: request seed %d, want 7", sc.Seed)
	}
}
