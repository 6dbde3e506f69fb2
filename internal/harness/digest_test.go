package harness

import (
	"testing"

	"beltway/internal/workload"
)

// TestResultDigestStable: the same run digests identically whether the
// digest is derived from a fresh Result or from the serialized payload
// bytes — the property the farm ledger's verify/replay path rests on.
func TestResultDigestStable(t *testing.T) {
	env := testEnv()
	res, err := RunOne(AppelConfig(env)(1<<20), workload.Get("db"), env)
	if err != nil {
		t.Fatal(err)
	}
	d1, err := ResultDigest(res)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := ResultDigest(res)
	if err != nil {
		t.Fatal(err)
	}
	if d1 != d2 {
		t.Fatalf("digest not deterministic: %s vs %s", d1, d2)
	}
	payload, err := MarshalRunPayload(res)
	if err != nil {
		t.Fatal(err)
	}
	if got := PayloadDigest(payload); got != d1 {
		t.Fatalf("PayloadDigest(MarshalRunPayload) = %s, ResultDigest = %s", got, d1)
	}

	// A rerun with the same seed and config must reproduce the digest: the
	// whole simulation is deterministic, which is what makes -replay able
	// to demand byte-identical results.
	res2, err := RunOne(AppelConfig(env)(1<<20), workload.Get("db"), env)
	if err != nil {
		t.Fatal(err)
	}
	d3, err := ResultDigest(res2)
	if err != nil {
		t.Fatal(err)
	}
	if d3 != d1 {
		t.Fatalf("replay digest %s differs from original %s", d3, d1)
	}

	if _, err := ResultDigest(nil); err == nil {
		t.Fatal("ResultDigest(nil) should error")
	}
}
