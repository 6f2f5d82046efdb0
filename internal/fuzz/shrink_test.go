package fuzz

import "testing"

// TestShrinkerConvergesOnSeededBug plants a protocol bug (drop the first
// InvAck — the invalidation handshake silently loses an acknowledgment) in a
// full-sized generated program and checks the shrinker produces a small
// still-failing repro: ≤ 8 threads × ≤ 64 ops, strictly smaller than the
// original.
func TestShrinkerConvergesOnSeededBug(t *testing.T) {
	p := Generate(42, "fslite")
	p.Sabotage = &SabotageSpec{Mode: "drop", Op: "InvAck", Nth: 1}
	opt := Options{}

	out := Execute(p, opt)
	if out.Failure == nil {
		t.Fatal("seeded bug not detected")
	}
	kind := out.Failure.Kind
	if kind != "stall" && kind != "deadlock" {
		t.Fatalf("seeded bug detected as %s, want a liveness failure", kind)
	}

	sr := Shrink(p, kind, opt, 0)
	q := sr.Program
	if got := Execute(q, opt); got.Failure == nil || got.Failure.Kind != kind {
		t.Fatalf("shrunk program no longer fails with %s: %v", kind, got.Failure)
	}
	if len(q.Threads) > 8 {
		t.Fatalf("shrunk repro has %d threads, want <= 8", len(q.Threads))
	}
	total := 0
	for _, ops := range q.Threads {
		if len(ops) > 64 {
			t.Fatalf("shrunk thread has %d ops, want <= 64", len(ops))
		}
		total += len(ops)
	}
	orig := 0
	for _, ops := range p.Threads {
		orig += len(ops)
	}
	if total >= orig {
		t.Fatalf("shrinker made no progress: %d ops vs original %d", total, orig)
	}
	t.Logf("shrunk %d threads/%d ops -> %d threads/%d ops in %d runs",
		len(p.Threads), orig, len(q.Threads), total, sr.Runs)
}

// TestShrinkerPreservesFailureKind shrinks an oracle (data-corruption)
// failure and checks the predicate held the failure kind fixed.
func TestShrinkerPreservesFailureKind(t *testing.T) {
	p := Generate(7, "fslite")
	p.Sabotage = &SabotageSpec{Mode: "corrupt", Op: "Data", Nth: 5}
	opt := Options{}
	out := Execute(p, opt)
	if out.Failure == nil || out.Failure.Kind != "oracle" {
		t.Fatalf("setup: %v", out.Failure)
	}
	sr := Shrink(p, "oracle", opt, 120)
	if got := Execute(sr.Program, opt); got.Failure == nil || got.Failure.Kind != "oracle" {
		t.Fatalf("shrunk program lost the oracle failure: %v", got.Failure)
	}
}
