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
// every access hits locally: the measured epochs exercise the full scan /
// skip / step machinery (and, in parallel, record / barrier replay) with the
// protocol quiesced, so any allocation seen is the engine's own.
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

// TestParallelEpochDoesNotAllocate checks that the steady-state stepping
// loop of both skipping engines is allocation-free once recorder buffers,
// message freelists and inbox rings have warmed up. Under the parallel engine
// it drives the epoch machinery inline (no worker goroutines, so the
// measurement sees every allocation): per-shard event-driven stepping,
// deferred-send recording, and the barrier replay/merge. Under the skip
// engine it runs advance over fixed access budgets: the one-shard stepping,
// the wake-up cache reset and the idle skip. `make allocsmoke` runs this
// alongside the network round-trip check.
func TestParallelEpochDoesNotAllocate(t *testing.T) {
	for _, tc := range []struct {
		name   string
		engine Engine
	}{{"parallel", EngineParallel}, {"skip", EngineSkip}} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig(coherence.FSLite)
			cfg.Params = cfg.Params.ScaleToCores(16)
			cfg.Params.Topology = network.TopoMesh
			cfg.Engine = tc.engine
			cfg.Shards = 4
			s := New(cfg, Workload{Name: "alloc", Threads: allocThreads(16)})
			defer s.Stop()
			var epoch func()
			if tc.engine == EngineParallel {
				pr := s.par
				if pr == nil {
					t.Fatal("parallel engine not constructed")
				}
				w := s.net.MinDeliveryLatency()
				next := uint64(1)
				epoch = func() {
					end := next + w
					for _, sh := range pr.shards {
						sh.runEpoch(end)
					}
					s.net.Replay(pr.recs, pr.deliver)
					next = end
				}
			} else {
				epoch = func() {
					if _, err := s.advance("alloc", math.MaxUint64, false, 64); err != nil {
						t.Fatal(err)
					}
				}
			}
			for i := 0; i < 2000; i++ {
				epoch() // warm-up: privatization episodes establish, pools fill
			}
			if n := testing.AllocsPerRun(500, epoch); n > 0 {
				t.Fatalf("steady-state epoch allocated %.2f allocs/op", n)
			}
		})
	}
}
