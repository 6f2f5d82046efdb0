package sim

import (
	"math"
	"testing"

	"fscoherence/internal/coherence"
	"fscoherence/internal/cpu"
	"fscoherence/internal/memsys"
	"fscoherence/internal/network"
)

// allocThreads is a store/load/compute false-sharing mix (no atomics: the
// AtomicAdd convenience wrapper allocates its RMW closure in the workload
// driver, which would mask what this test measures — the engine itself).
// Under FSLite the falsely shared lines privatize during warmup, after which
// every access hits locally: the measured windows exercise the full scan /
// skip / step machinery with the protocol quiesced, so any allocation seen
// is the engine's own.
func allocThreads(n int) []cpu.ThreadFunc {
	var ths []cpu.ThreadFunc
	for t := 0; t < n; t++ {
		t := t
		ths = append(ths, func(c *cpu.Ctx) {
			slot := addr(t/8, 8*(t%8))
			priv := addr(64+t*4, 0)
			for i := 0; ; i++ {
				c.Store(slot, 8, uint64(i))
				c.Load(priv+memsys.Addr(64*(i%4)), 8)
				c.Compute(uint64(i % 5))
			}
		})
	}
	return ths
}

// TestParallelEpochDoesNotAllocate checks that the skip engine's
// steady-state stepping loop is allocation-free once message freelists and
// inbox rings have warmed up. The skip subtest runs advance over fixed access
// budgets: the due-component stepping, the wake-up cache reset and the idle
// skip.
// The name is kept from when the table also measured the removed parallel
// engine's epoch loop. `make allocsmoke` runs this alongside the network
// round-trip check.
func TestParallelEpochDoesNotAllocate(t *testing.T) {
	t.Run("skip", func(t *testing.T) {
		cfg := DefaultConfig(coherence.FSLite)
		cfg.Params = cfg.Params.ScaleToCores(16)
		cfg.Params.Topology = network.TopoMesh
		s := New(cfg, Workload{Name: "alloc", Threads: allocThreads(16)})
		defer s.Stop()
		window := func() {
			if _, err := s.advance("alloc", math.MaxUint64, false, 64); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 2000; i++ {
			window() // warm-up: privatization episodes establish, pools fill
		}
		if n := testing.AllocsPerRun(500, window); n > 0 {
			t.Fatalf("steady-state window allocated %.2f allocs/op", n)
		}
	})
}
