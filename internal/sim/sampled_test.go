package sim

import (
	"testing"

	"fscoherence/internal/coherence"
	"fscoherence/internal/cpu"
	"fscoherence/internal/sample"
	"fscoherence/internal/stats"
)

// sampledConfig returns a sampling configuration without Verify (the root
// package's TestSampledVerify runs sampled workloads under the oracle).
func sampledConfig(mode coherence.Protocol, spec string) Config {
	cfg := DefaultConfig(mode)
	cfg.MaxCycles = 50_000_000
	s, err := sample.ParseSpec(spec)
	if err != nil {
		panic(err)
	}
	cfg.Sample = s
	return cfg
}

// TestSampledReadBack checks that values written across detailed and warming
// windows read back correctly: the warming path is architecturally exact.
func TestSampledReadBack(t *testing.T) {
	for _, mode := range []coherence.Protocol{coherence.Baseline, coherence.FSDetect, coherence.FSLite} {
		const n = 400
		var got [n]uint64
		wl := Workload{
			Name: "sampled-readback",
			Threads: []cpu.ThreadFunc{func(c *cpu.Ctx) {
				for i := 0; i < n; i++ {
					c.Store(addr(i%32, (i%8)*8), 8, uint64(i*i+3))
				}
				for i := n - 1; i >= 0; i-- {
					got[i] = c.Load(addr(i%32, (i%8)*8), 8)
				}
			}},
		}
		res := mustRun(t, sampledConfig(mode, "50:150"), wl)
		if res.Sampled == nil {
			t.Fatalf("%v: sampled run returned no SampledRun", mode)
		}
		// The last writer of each (block, offset) slot wins.
		want := map[int]uint64{}
		for i := 0; i < n; i++ {
			want[(i%32)*8+(i%8)] = uint64(i*i + 3)
		}
		for i := 0; i < n; i++ {
			if got[i] != want[(i%32)*8+(i%8)] {
				t.Fatalf("%v: slot %d = %d, want %d", mode, i, got[i], want[(i%32)*8+(i%8)])
			}
		}
	}
}

// TestSampledFunctionalCountersExact runs the same workload fully and sampled
// and requires the functionally-accrued counters to match exactly: warming
// performs the same architectural work the detailed engine would.
func TestSampledFunctionalCountersExact(t *testing.T) {
	mkwl := func() Workload {
		threads := make([]cpu.ThreadFunc, 4)
		for i := range threads {
			tid := i
			threads[i] = func(c *cpu.Ctx) {
				// Private blocks plus a shared reduction: misses, fills,
				// evictions and (under FSLite) privatizations all exercise.
				for r := 0; r < 50; r++ {
					for b := 0; b < 8; b++ {
						a := addr(64+tid*8+b, 0)
						c.Store(a, 8, uint64(r*b+tid))
						c.Load(a, 8)
					}
					c.Store(addr(0, tid*8), 8, uint64(r))
				}
			}
		}
		return Workload{Name: "sampled-counters", Threads: threads}
	}
	for _, mode := range []coherence.Protocol{coherence.Baseline, coherence.FSLite} {
		full := mustRun(t, func() Config {
			cfg := DefaultConfig(mode)
			cfg.MaxCycles = 50_000_000
			return cfg
		}(), mkwl())
		sampled := mustRun(t, sampledConfig(mode, "100:300"), mkwl())
		for _, id := range []stats.ID{
			stats.IDOpsCommitted, stats.IDLoadsCommitted, stats.IDStoresCommit,
			stats.IDL1DAccesses,
		} {
			if f, s := full.Stats.GetID(id), sampled.Stats.GetID(id); f != s {
				t.Errorf("%v %s: full=%d sampled=%d", mode, id.Name(), f, s)
			}
		}
		if sampled.Sampled.Windows < 2 {
			t.Errorf("%v: only %d detailed windows", mode, sampled.Sampled.Windows)
		}
	}
}

// TestSampledRepairStaysWarm checks that FSLite still detects and privatizes
// falsely-shared lines when most accesses run in warming windows.
func TestSampledRepairStaysWarm(t *testing.T) {
	threads := make([]cpu.ThreadFunc, 4)
	for i := range threads {
		tid := i
		threads[i] = func(c *cpu.Ctx) {
			for r := 0; r < 2000; r++ {
				c.Store(addr(0, tid*8), 8, uint64(r))
			}
		}
	}
	wl := Workload{Name: "sampled-fs", Threads: threads}
	res := mustRun(t, sampledConfig(coherence.FSLite, "100:900"), wl)
	if res.Stats.GetID(stats.IDFSPrivatized) == 0 {
		t.Fatal("sampled FSLite run never privatized a falsely-shared line")
	}
	if len(res.Detections) == 0 {
		t.Fatal("sampled FSLite run reported no detections")
	}
	if res.Sampled.Estimates[stats.CtrCycles].Mean <= 0 {
		t.Fatalf("cycle estimate missing: %+v", res.Sampled.Estimates)
	}
}

// TestSampledBoundaryQuiescence verifies the window-boundary contract: every
// time the hook fires, no core has an outstanding access, the network is
// empty, and the coherence metadata (PAM/SAM) agrees with the caches.
func TestSampledBoundaryQuiescence(t *testing.T) {
	threads := make([]cpu.ThreadFunc, 4)
	for i := range threads {
		tid := i
		threads[i] = func(c *cpu.Ctx) {
			for r := 0; r < 500; r++ {
				c.Store(addr(r%16, tid*8), 8, uint64(r))
				c.Load(addr((r+7)%16, tid*8), 8)
			}
		}
	}
	wl := Workload{Name: "sampled-boundary", Threads: threads}
	cfg := sampledConfig(coherence.FSLite, "64:192")
	s := New(cfg, wl)
	boundaries := 0
	s.SetBoundaryHook(func(cycle uint64) {
		boundaries++
		if !s.drained() {
			t.Fatalf("boundary at cycle %d: machine not quiescent", cycle)
		}
		for i := 0; i < cfg.Params.Cores; i++ {
			for _, v := range s.L1(i).PolicyViolations() {
				t.Fatalf("boundary at cycle %d: %s", cycle, v)
			}
		}
		for i := 0; i < cfg.Params.Slices; i++ {
			for _, v := range s.Dir(i).PolicyViolations() {
				t.Fatalf("boundary at cycle %d: %s", cycle, v)
			}
		}
	})
	if _, err := s.Run(wl.Name); err != nil {
		t.Fatalf("run: %v\n%s", err, s.DumpState())
	}
	if boundaries < 4 {
		t.Fatalf("only %d window boundaries fired", boundaries)
	}
}
