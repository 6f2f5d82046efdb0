package fuzz

import (
	"strings"
	"testing"
)

// TestCampaignSmoke is the tier-1 fuzzing gate: a fixed corpus across all
// three protocols with fault injection enabled must run clean. The corpus is
// small enough for `go test ./...`; `make fuzzsmoke` runs a larger one and
// `make fuzz` a larger one still.
func TestCampaignSmoke(t *testing.T) {
	res := Campaign(CampaignConfig{StartSeed: 1, Seeds: 30, Log: t.Logf})
	if res.Cases != 30*len(Protocols) {
		t.Fatalf("cases = %d", res.Cases)
	}
	for _, f := range res.Failures {
		t.Errorf("seed=%d protocol=%s: %v\nrepro:\n%s", f.Seed, f.Protocol, f.Failure, f.Shrunk)
	}
}

// TestGenerateShape checks every generated program is valid and within the
// documented bounds (≤7 workers, ≤64 ops per thread).
func TestGenerateShape(t *testing.T) {
	for seed := uint64(1); seed <= 200; seed++ {
		for _, proto := range Protocols {
			p := Generate(seed, proto)
			if err := p.Validate(); err != nil {
				t.Fatalf("seed %d %s: %v", seed, proto, err)
			}
			if len(p.Threads) > maxWorkers {
				t.Fatalf("seed %d: %d workers", seed, len(p.Threads))
			}
			for ti, ops := range p.Threads {
				if len(ops) == 0 || len(ops) > 64 {
					t.Fatalf("seed %d thread %d: %d ops", seed, ti, len(ops))
				}
			}
		}
	}
}

// TestExecuteDeterministic re-executes the same program and demands an
// identical outcome — the property replay and shrinking depend on.
func TestExecuteDeterministic(t *testing.T) {
	for _, proto := range Protocols {
		p := Generate(99, proto)
		a := Execute(p, Options{})
		b := Execute(p, Options{})
		if a.Cycles != b.Cycles {
			t.Fatalf("%s: cycles %d vs %d", proto, a.Cycles, b.Cycles)
		}
		if (a.Failure == nil) != (b.Failure == nil) {
			t.Fatalf("%s: failure %v vs %v", proto, a.Failure, b.Failure)
		}
	}
}

// TestCampaignDeterministicAcrossJobs runs the same campaign with different
// worker counts: the per-case results must not depend on scheduling.
func TestCampaignDeterministicAcrossJobs(t *testing.T) {
	run := func(jobs int) *CampaignResult {
		return Campaign(CampaignConfig{StartSeed: 50, Seeds: 6, Jobs: jobs})
	}
	a, b := run(1), run(4)
	if a.TotalCycles != b.TotalCycles || len(a.Failures) != len(b.Failures) {
		t.Fatalf("jobs=1 {cycles=%d fails=%d} vs jobs=4 {cycles=%d fails=%d}",
			a.TotalCycles, len(a.Failures), b.TotalCycles, len(b.Failures))
	}
}

// TestProgramRoundTrip checks the repro file format: a program survives
// Marshal/Unmarshal bit-exactly (same execution).
func TestProgramRoundTrip(t *testing.T) {
	p := Generate(7, "fslite")
	p.Sabotage = &SabotageSpec{Mode: "corrupt", Op: "Data", Nth: 5}
	q, err := Unmarshal(p.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	a, b := Execute(p, Options{}), Execute(q, Options{})
	if a.Cycles != b.Cycles || (a.Failure == nil) != (b.Failure == nil) {
		t.Fatalf("round-trip changed the execution: %v vs %v", a, b)
	}
}

// TestSabotageCorruptDetected seeds a single-bit payload corruption on a
// Data response and demands the golden-memory oracle catch it.
func TestSabotageCorruptDetected(t *testing.T) {
	p := Generate(7, "fslite")
	p.Sabotage = &SabotageSpec{Mode: "corrupt", Op: "Data", Nth: 5}
	out := Execute(p, Options{})
	if out.Failure == nil {
		t.Fatal("corrupted data payload not detected")
	}
	if out.Failure.Kind != "oracle" {
		t.Fatalf("kind = %s, want oracle: %v", out.Failure.Kind, out.Failure)
	}
	if !strings.Contains(out.Failure.Detail, "got 0x") {
		t.Fatalf("detail lacks byte diagnosis: %s", out.Failure.Detail)
	}
}

// TestSabotageDropDetected drops a protocol message and demands the liveness
// oracle catch the resulting wedge on every protocol.
func TestSabotageDropDetected(t *testing.T) {
	for _, tc := range []struct{ proto, op string }{
		{"baseline", "Data"},
		{"fsdetect", "InvAck"},
		{"fslite", "InvAck"},
	} {
		p := Generate(42, tc.proto)
		p.Sabotage = &SabotageSpec{Mode: "drop", Op: tc.op, Nth: 1}
		out := Execute(p, Options{})
		if out.Failure == nil {
			t.Fatalf("%s: dropped %s not detected", tc.proto, tc.op)
		}
		if out.Failure.Kind != "stall" && out.Failure.Kind != "deadlock" {
			t.Fatalf("%s: kind = %s, want a liveness failure: %v", tc.proto, out.Failure.Kind, out.Failure)
		}
	}
}
