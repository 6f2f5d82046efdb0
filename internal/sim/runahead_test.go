package sim

import (
	"math"
	"reflect"
	"runtime"
	"testing"

	"fscoherence/internal/coherence"
	"fscoherence/internal/cpu"
	"fscoherence/internal/memsys"
	"fscoherence/internal/stats"
)

// aheadCase is a workload in which core 0 streams L1 hits to a line while
// another core's request for that line is in flight, so core 0's run-ahead
// has to stop at the arrival of the resulting intervention.
type aheadCase struct {
	name string
	mode coherence.Protocol
	// threads builds the workload; loads[i] collects what core i loaded.
	threads func(loads [][]uint64) []cpu.ThreadFunc
	lines   []memsys.Addr // the blocks whose final contents are compared
	check   func(t *testing.T, res *Result)
}

var aheadCases = []aheadCase{
	{
		// Core 0 owns line A in M and streams hits; core 1's GetX for A
		// forwards to core 0, and the two then ping-pong the line.
		name: "baseline-getx",
		mode: coherence.Baseline,
		threads: func(loads [][]uint64) []cpu.ThreadFunc {
			a := addr(0, 0)
			return []cpu.ThreadFunc{
				func(c *cpu.Ctx) {
					for i := 0; i < 400; i++ {
						c.Store(a, 8, uint64(i))
						loads[0] = append(loads[0], c.Load(a+16, 8))
						c.Compute(1)
					}
				},
				func(c *cpu.Ctx) {
					c.Compute(300)
					for i := 0; i < 40; i++ {
						c.Store(a+16, 8, uint64(1000+i))
						loads[1] = append(loads[1], c.Load(a, 8))
						c.Compute(20)
					}
				},
			}
		},
		lines: []memsys.Addr{addr(0, 0)},
	},
	{
		// Cores 0 and 1 store to their own slots of line P until FSLite
		// privatizes it, and core 0 keeps streaming hits to its privatized
		// slot. Core 2 then reads core 0's slot: its GetS conflicts with
		// core 0's write bits and terminates the episode.
		name: "fslite-termination",
		mode: coherence.FSLite,
		threads: func(loads [][]uint64) []cpu.ThreadFunc {
			p := addr(0, 0)
			return []cpu.ThreadFunc{
				func(c *cpu.Ctx) {
					for i := 0; i < 1500; i++ {
						c.Store(p, 8, uint64(i))
						loads[0] = append(loads[0], c.Load(p, 8))
					}
				},
				func(c *cpu.Ctx) {
					for i := 0; i < 300; i++ {
						c.Store(p+8, 8, uint64(i))
						c.Compute(3)
					}
				},
				func(c *cpu.Ctx) {
					c.Compute(6000)
					loads[2] = append(loads[2], c.Load(p, 8))
				},
			}
		},
		lines: []memsys.Addr{addr(0, 0)},
		check: func(t *testing.T, res *Result) {
			if res.Stats.Get(stats.CtrFSPrivatized) == 0 || res.Stats.Get(stats.CtrFSTermConflict) == 0 {
				t.Fatalf("want a privatization ended by a conflict: privatized %d, conflict terminations %d",
					res.Stats.Get(stats.CtrFSPrivatized), res.Stats.Get(stats.CtrFSTermConflict))
			}
		},
	},
}

// aheadRun is one engine's run of an aheadCase.
type aheadRun struct {
	res   *Result
	loads [][]uint64
	mem   []byte // the oracle's final contents of the case's lines

	// Per core, the number of run-aheads (Horizon calls, one per fetch) and
	// whether any returned the full two-hop reach.
	switches  []uint64
	fullReach bool
}

func runAheadCase(t *testing.T, tc aheadCase, eng Engine) aheadRun {
	t.Helper()
	cfg := testConfig(tc.mode)
	cfg.Engine = eng
	loads := make([][]uint64, cfg.Params.Cores)
	s := New(cfg, Workload{Name: tc.name, Threads: tc.threads(loads)})
	r := aheadRun{loads: loads, switches: make([]uint64, cfg.Params.Cores)}
	d := s.net.MinDeliveryLatency()
	s.horizonHook = func(core int, c, bound uint64) {
		r.switches[core]++
		if bound > c+2*d {
			t.Errorf("core %d at cycle %d: bound %d beyond the two-hop reach %d", core, c, bound, c+2*d)
		}
		if bound == c+2*d {
			r.fullReach = true
		}
	}
	res, err := s.Run(tc.name)
	if err != nil {
		t.Fatalf("%v: %v\n%s", eng, err, s.DumpState())
	}
	for _, v := range res.OracleViolations {
		t.Errorf("%v oracle: %s", eng, v)
	}
	for _, v := range res.SWMRViolations {
		t.Errorf("%v swmr: %s", eng, v)
	}
	for _, blk := range tc.lines {
		for i := 0; i < int(cfg.Params.BlockSize); i++ {
			r.mem = append(r.mem, s.oracle.Expected(blk+memsys.Addr(i)))
		}
	}
	r.res = res
	return r
}

// TestRunAheadStopsAtArrival drives run-ahead up to its bound: core 0
// streams L1 hits while an intervention for the line it hits is on its way.
// The skip engine, with run-ahead armed and every commit checked by the
// oracle, must match the naive engine's cycles, counters, loaded values and
// final memory exactly. Through the Horizon hook it must also have committed
// more than one op per coroutine switch on core 0, have reached two hops
// ahead while nothing was in flight, and never beyond.
func TestRunAheadStopsAtArrival(t *testing.T) {
	for _, tc := range aheadCases {
		t.Run(tc.name, func(t *testing.T) {
			naive := runAheadCase(t, tc, EngineNaive)
			skip := runAheadCase(t, tc, EngineSkip)
			if tc.check != nil {
				tc.check(t, naive.res)
			}
			if naive.res.Cycles != skip.res.Cycles {
				t.Errorf("cycles diverge: naive=%d skip=%d", naive.res.Cycles, skip.res.Cycles)
			}
			ns, ss := naive.res.Stats.Snapshot(), skip.res.Stats.Snapshot()
			if !reflect.DeepEqual(ns, ss) {
				for k, v := range ns {
					if ss[k] != v {
						t.Errorf("counter %s diverges: naive=%d skip=%d", k, v, ss[k])
					}
				}
			}
			if !reflect.DeepEqual(naive.loads, skip.loads) {
				t.Error("loaded values diverge between naive and skip")
			}
			if !reflect.DeepEqual(naive.mem, skip.mem) {
				t.Errorf("final memory diverges:\nnaive %x\nskip  %x", naive.mem, skip.mem)
			}
			if n := naive.switches[0]; n != 0 {
				t.Errorf("naive engine ran ahead %d times", n)
			}
			ops := uint64(len(skip.loads[0]))
			if sw := skip.switches[0]; sw == 0 || ops <= sw {
				t.Errorf("core 0 committed %d loads over %d switches: no run-ahead", ops, sw)
			}
			if !skip.fullReach {
				t.Error("no run-ahead reached two hops ahead of its cycle")
			}
		})
	}
}

// TestRunAheadDoesNotAllocate checks the run-ahead path: once FSLite has
// privatized a falsely shared line, a run through advance — unbudgeted, so
// run-ahead is armed — in which two cores stream hits to their privatized
// slots allocates nothing. `make allocsmoke` runs it.
func TestRunAheadDoesNotAllocate(t *testing.T) {
	cfg := DefaultConfig(coherence.FSLite)
	var ths []cpu.ThreadFunc
	for i := 0; i < 2; i++ {
		slot := addr(0, 8*i)
		ths = append(ths, func(c *cpu.Ctx) {
			for j := 0; j < 20000; j++ {
				c.Store(slot, 8, uint64(j))
				c.Load(slot, 8)
				c.Compute(2)
			}
		})
	}
	s := New(cfg, Workload{Name: "ahead-alloc", Threads: ths})
	defer s.Stop()
	// Warm up with budgeted windows, which leave run-ahead off, until the
	// line is privatized and the pools have filled.
	for s.stats.GetID(stats.IDFSPrivatized) == 0 || s.stats.GetID(stats.IDL1DAccesses) < 4000 {
		if done, err := s.advance("ahead-alloc", math.MaxUint64, false, 64); err != nil || done {
			t.Fatalf("warm-up ended before the line privatized: %v", err)
		}
	}
	// The first arm builds each core's run-ahead state.
	s.setLookahead(s)
	s.setLookahead(nil)
	var switches uint64
	s.horizonHook = func(int, uint64, uint64) { switches++ }
	ops0 := s.stats.GetID(stats.IDOpsCommitted)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	finished, err := s.advance("ahead-alloc", math.MaxUint64, false, 0)
	runtime.ReadMemStats(&after)
	if err != nil || !finished {
		t.Fatalf("run did not finish: %v", err)
	}
	ops := s.stats.GetID(stats.IDOpsCommitted) - ops0
	t.Logf("%d ops over %d run-aheads", ops, switches)
	if switches == 0 || ops <= switches {
		t.Fatalf("%d ops over %d run-aheads: the run did not run ahead", ops, switches)
	}
	if n := after.Mallocs - before.Mallocs; n > 0 {
		t.Fatalf("the run-ahead run allocated %d objects", n)
	}
}
