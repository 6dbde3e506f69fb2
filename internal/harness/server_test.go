package harness

import (
	"testing"

	"beltway/internal/collectors"
	"beltway/internal/core"
	"beltway/internal/server"
)

func serverTestConfig() server.Config {
	return server.Scaled(0.1)
}

func serverTestEnv() Env {
	env := EnvForScale(0.1)
	env.Telemetry = true
	return env
}

func serverCollector(t *testing.T, preset string, sc server.Config, env Env, factor float64) core.Config {
	t.Helper()
	hb := int(float64(sc.EstLiveBytes()) * factor)
	hb = (hb/env.FrameBytes + 1) * env.FrameBytes
	cfg, err := collectors.Parse(preset, collectors.Options{
		HeapBytes:  hb,
		FrameBytes: env.FrameBytes,
	})
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

func TestRunServerPresets(t *testing.T) {
	sc := serverTestConfig()
	env := serverTestEnv()
	for _, preset := range []string{"25.25", "25.25.100", "25.25-mr", "immix"} {
		cfg := serverCollector(t, preset, sc, env, 4)
		res, err := RunServer(cfg, sc, server.SLO{}, env)
		if err != nil {
			t.Fatalf("%s: %v", preset, err)
		}
		if res.OOM || res.Aborted {
			t.Fatalf("%s: incomplete run (oom=%v aborted=%v)", preset, res.OOM, res.Aborted)
		}
		if res.Server == nil || res.Server.Overall.Requests != sc.TotalRequests() {
			t.Fatalf("%s: bad server report: %+v", preset, res.Server)
		}
		if res.Benchmark != "server" {
			t.Fatalf("%s: benchmark=%q", preset, res.Benchmark)
		}
		if res.Telemetry == nil {
			t.Fatalf("%s: no telemetry snapshot", preset)
		}
		if n := res.Server.Overall.Latency.Count; n != sc.TotalRequests() {
			t.Fatalf("%s: latency distribution over %d requests, want %d", preset, n, sc.TotalRequests())
		}
		// Every request left an event; the ring keeps the newest.
		events := res.Telemetry.Events
		if uint64(len(events))+res.Telemetry.DroppedEvents < uint64(sc.TotalRequests()) {
			t.Fatalf("%s: %d events kept, %d dropped: fewer than the %d requests",
				preset, len(events), res.Telemetry.DroppedEvents, sc.TotalRequests())
		}
	}
}

func TestRunServerShardedScaleOut(t *testing.T) {
	sc := serverTestConfig()
	env := serverTestEnv()
	env.Mutators = 4
	cfg := serverCollector(t, "25.25", sc, env, 4)
	res, err := RunServer(cfg, sc, server.SLO{}, env)
	if err != nil {
		t.Fatal(err)
	}
	if res.Mutators != 4 || res.Server.Shards != 4 {
		t.Fatalf("mutators=%d shards=%d", res.Mutators, res.Server.Shards)
	}
	want := 4 * sc.TotalRequests()
	if res.Server.Overall.Requests != want {
		t.Fatalf("served %d requests, want %d", res.Server.Overall.Requests, want)
	}
	// Shard streams are decorrelated: per-shard checksums fold into a
	// combined fingerprint that differs from any single lane's.
	flatRes, err := RunServer(cfg, sc, server.SLO{}, serverTestEnv())
	if err != nil {
		t.Fatal(err)
	}
	if res.Server.StoreChecksum == flatRes.Server.StoreChecksum {
		t.Fatalf("4-shard fingerprint equals flat fingerprint; lanes not decorrelated")
	}
	// Determinism across repeated sharded runs.
	res2, err := RunServer(cfg, sc, server.SLO{}, env)
	if err != nil {
		t.Fatal(err)
	}
	if res.Server.StoreChecksum != res2.Server.StoreChecksum ||
		res.TotalTime != res2.TotalTime {
		t.Fatalf("sharded runs not deterministic")
	}
}

func TestRunServerDeterministic(t *testing.T) {
	sc := serverTestConfig()
	env := serverTestEnv()
	cfg := serverCollector(t, "25.25.100", sc, env, 3)
	a, err := RunServer(cfg, sc, server.SLO{}, env)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunServer(cfg, sc, server.SLO{}, env)
	if err != nil {
		t.Fatal(err)
	}
	if a.TotalTime != b.TotalTime || a.GCTime != b.GCTime {
		t.Fatalf("timelines differ: (%v,%v) vs (%v,%v)", a.TotalTime, a.GCTime, b.TotalTime, b.GCTime)
	}
	// The whole Result: every distribution, pause and retained request
	// event. (The per-request streams themselves are held run to run by
	// internal/server's TestLoopDeterministic.)
	da, err := ResultDigest(a)
	if err != nil {
		t.Fatal(err)
	}
	if db, err := ResultDigest(b); err != nil || da != db {
		t.Fatalf("result digests differ: %s vs %s (%v)", da, db, err)
	}
}

func TestResultsTableServerColumns(t *testing.T) {
	sc := serverTestConfig()
	env := serverTestEnv()
	cfg := serverCollector(t, "25.25", sc, env, 4)
	res, err := RunServer(cfg, sc, server.SLO{}, env)
	if err != nil {
		t.Fatal(err)
	}
	tbl := ResultsTable([]*Result{res})
	if got := tbl.Headers[len(tbl.Headers)-2]; got != "req-p99.9(us)" {
		t.Fatalf("missing SLO header, got %q", got)
	}
	if got := tbl.Headers[len(tbl.Headers)-1]; got != "paused%" {
		t.Fatalf("missing paused%% header, got %q", got)
	}
	if len(tbl.Rows) != 1 || len(tbl.Rows[0]) != len(tbl.Headers) {
		t.Fatalf("row shape: %v", tbl.Rows)
	}
	// A table without server results must render the classic headers.
	plain := ResultsTable([]*Result{{Collector: "25.25", Benchmark: "gcbench"}})
	if plain.Headers[len(plain.Headers)-1] != "max(ms)" {
		t.Fatalf("classic table grew headers: %v", plain.Headers)
	}
}
