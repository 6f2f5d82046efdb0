package fuzz

import (
	"strings"
	"testing"
)

// TestWatchdogDetectsWedge wedges the first Data response in flight (its
// delivery cycle pushed past any horizon) and checks Verify's liveness
// check trips on the skip engine with a dump naming the stuck message and
// the waiting FSM — the artifact a protocol engineer debugs from.
func TestWatchdogDetectsWedge(t *testing.T) {
	p := Generate(42, "fslite")
	p.Sabotage = &SabotageSpec{Mode: "wedge", Op: "Data", Nth: 1}
	out := Execute(p, Options{})
	if out.Failure == nil {
		t.Fatal("wedged Data message not detected")
	}
	if out.Failure.Kind != "stall" {
		t.Fatalf("kind = %s, want stall: %v", out.Failure.Kind, out.Failure)
	}
	for _, want := range []string{
		"watchdog trip",     // the per-core commit-age table
		"in-flight: Data",   // the wedged message itself
		"readyAt=",          // with its (sentinel) delivery cycle
		"state=IS_D",        // the MSHR stuck waiting for it
		"committed nothing", // the one-line diagnosis
	} {
		if !strings.Contains(out.Failure.Error(), want) {
			t.Errorf("dump lacks %q:\n%s", want, out.Failure.Error())
		}
	}
}

// TestWatchdogSparesLivelockFreeRun checks the liveness check does not trip
// on a clean run with heavy jitter (spinners keep committing loads, so
// per-core commit tracking stays quiet).
func TestWatchdogSparesLivelockFreeRun(t *testing.T) {
	p := Generate(42, "fslite")
	p.Faults.MaxJitter = 80
	out := Execute(p, Options{})
	if out.Failure != nil {
		t.Fatalf("clean jittered run failed: %v", out.Failure)
	}
}
