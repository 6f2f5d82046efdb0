package sim

import (
	"errors"
	"strings"
	"testing"

	"fscoherence/internal/coherence"
	"fscoherence/internal/cpu"
	"fscoherence/internal/network"
)

// TestStallTripsOnBothEngines wedges the first Data response in flight (its
// delivery cycle pushed past any horizon) and requires Verify's liveness
// check to stop the run with a *StallError on both engines: at the same
// check cycle, naming the same core, with a dump that shows the stuck
// message and the MSHR waiting for it. `make equiv` runs it.
func TestStallTripsOnBothEngines(t *testing.T) {
	run := func(eng Engine) *StallError {
		cfg := testConfig(coherence.Baseline)
		cfg.Engine = eng
		var ths []cpu.ThreadFunc
		for i := 0; i < 4; i++ {
			own := addr(1+i, 0)
			ths = append(ths, func(c *cpu.Ctx) {
				for j := 0; j < 200; j++ {
					c.Load(addr(0, 0), 8)
					c.Store(own, 8, uint64(j))
					c.Compute(3)
				}
			})
		}
		s := New(cfg, Workload{Name: "wedge", Threads: ths})
		s.Net().SetSabotage(&network.Sabotage{Mode: network.SabotageWedge, Op: network.OpData, Nth: 1})
		_, err := s.Run("wedge")
		var stall *StallError
		if !errors.As(err, &stall) {
			t.Fatalf("engine %d: got %v, want a *StallError", eng, err)
		}
		for _, want := range []string{"in-flight: Data", "readyAt=", "state=IS_D"} {
			if !strings.Contains(stall.State, want) {
				t.Errorf("engine %d: dump lacks %q:\n%s", eng, want, stall.State)
			}
		}
		if !strings.Contains(stall.Ages, "watchdog trip") {
			t.Errorf("engine %d: no commit-age table:\n%s", eng, stall.Ages)
		}
		return stall
	}
	naive, skip := run(EngineNaive), run(EngineSkip)
	if naive.Cycle != skip.Cycle || naive.Reason != skip.Reason {
		t.Fatalf("engines trip apart:\n  naive at %d: %s\n  skip  at %d: %s",
			naive.Cycle, naive.Reason, skip.Cycle, skip.Reason)
	}
	if naive.Cycle <= stallCycles {
		t.Fatalf("tripped at cycle %d, before any core could be %d cycles stale", naive.Cycle, stallCycles)
	}
	t.Logf("both engines trip at cycle %d: %s", skip.Cycle, skip.Reason)
}
