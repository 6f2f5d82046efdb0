package sim

import (
	"math/rand"
	"reflect"
	"testing"

	"fscoherence/internal/coherence"
	"fscoherence/internal/cpu"
	"fscoherence/internal/memsys"
	"fscoherence/internal/stats"
)

// testConfig returns a verification-heavy configuration.
func testConfig(mode coherence.Protocol) Config {
	cfg := DefaultConfig(mode)
	cfg.Verify = true
	cfg.SWMRPeriod = 16
	cfg.MaxCycles = 50_000_000
	return cfg
}

func mustRun(t *testing.T, cfg Config, wl Workload) *Result {
	t.Helper()
	s := New(cfg, wl)
	res, err := s.Run(wl.Name)
	if err != nil {
		t.Fatalf("run %s: %v\n%s", wl.Name, err, s.DumpState())
	}
	for _, v := range res.OracleViolations {
		t.Errorf("oracle: %s", v)
	}
	for _, v := range res.SWMRViolations {
		t.Errorf("swmr: %s", v)
	}
	if t.Failed() {
		t.Fatalf("%s failed under %v", wl.Name, cfg.Mode)
	}
	return res
}

const blk = 64

// addr computes a test address: block index * 64 + offset.
func addr(block, off int) memsys.Addr {
	return memsys.Addr(0x10000 + block*blk + off)
}

func TestSingleThreadReadBack(t *testing.T) {
	for _, mode := range []coherence.Protocol{coherence.Baseline, coherence.FSDetect, coherence.FSLite} {
		var got [16]uint64
		wl := Workload{
			Name: "single",
			Threads: []cpu.ThreadFunc{func(c *cpu.Ctx) {
				for i := 0; i < 16; i++ {
					c.Store(addr(i, 8), 8, uint64(i*i+7))
				}
				for i := 0; i < 16; i++ {
					got[i] = c.Load(addr(i, 8), 8)
				}
			}},
		}
		mustRun(t, testConfig(mode), wl)
		for i := 0; i < 16; i++ {
			if got[i] != uint64(i*i+7) {
				t.Fatalf("%v: slot %d = %d", mode, i, got[i])
			}
		}
	}
}

func TestProducerConsumerHandoff(t *testing.T) {
	// Core 0 writes a value then sets a flag; core 1 spins on the flag and
	// must observe the value (MESI interventions + invalidations).
	for _, mode := range []coherence.Protocol{coherence.Baseline, coherence.FSLite} {
		var seen uint64
		data, flag := addr(0, 0), addr(1, 0)
		wl := Workload{
			Name: "handoff",
			Threads: []cpu.ThreadFunc{
				func(c *cpu.Ctx) {
					c.StoreSync(data, 8, 0xdeadbeef)
					c.StoreSync(flag, 8, 1)
				},
				func(c *cpu.Ctx) {
					for c.Load(flag, 8) == 0 {
						c.Compute(2)
					}
					seen = c.Load(data, 8)
				},
			},
		}
		mustRun(t, testConfig(mode), wl)
		if seen != 0xdeadbeef {
			t.Fatalf("%v: consumer saw %#x", mode, seen)
		}
	}
}

func TestLockedSharedCounter(t *testing.T) {
	const threads, iters = 4, 25
	for _, mode := range []coherence.Protocol{coherence.Baseline, coherence.FSDetect, coherence.FSLite} {
		lock, counter := addr(0, 0), addr(1, 0)
		bar := &cpu.Barrier{CountAddr: addr(2, 0), SenseAddr: addr(2, 8), Threads: threads}
		finals := make([]uint64, threads)
		mkThread := func(id int) cpu.ThreadFunc {
			return func(c *cpu.Ctx) {
				var sense uint64
				for i := 0; i < iters; i++ {
					c.LockAcquire(lock)
					v := c.Load(counter, 8)
					c.Compute(3)
					c.StoreSync(counter, 8, v+1)
					c.LockRelease(lock)
				}
				bar.Wait(c, &sense)
				finals[id] = c.Load(counter, 8)
			}
		}
		var ths []cpu.ThreadFunc
		for i := 0; i < threads; i++ {
			ths = append(ths, mkThread(i))
		}
		res := mustRun(t, testConfig(mode), Workload{Name: "locked-counter", Threads: ths})
		for id, v := range finals {
			if v != threads*iters {
				t.Fatalf("%v: thread %d read %d, want %d (cycles %d)", mode, id, v, threads*iters, res.Cycles)
			}
		}
	}
}

func TestAtomicFetchAddSharedCounter(t *testing.T) {
	const threads, iters = 8, 40
	for _, mode := range []coherence.Protocol{coherence.Baseline, coherence.FSLite} {
		counter := addr(0, 16)
		var last uint64
		mk := func(id int) cpu.ThreadFunc {
			return func(c *cpu.Ctx) {
				for i := 0; i < iters; i++ {
					old := c.AtomicAdd(counter, 8, 1)
					if old == threads*iters-1 {
						last = c.Load(counter, 8)
					}
				}
			}
		}
		var ths []cpu.ThreadFunc
		for i := 0; i < threads; i++ {
			ths = append(ths, mk(i))
		}
		res := mustRun(t, testConfig(mode), Workload{Name: "fetch-add", Threads: ths})
		if last != threads*iters {
			t.Fatalf("%v: final counter %d, want %d", mode, last, threads*iters)
		}
		if mode == coherence.FSLite && res.Stats.Get(stats.CtrFSPrivatized) != 0 {
			t.Fatalf("truly shared counter line was privatized")
		}
	}
}

func TestRandomStress(t *testing.T) {
	// 8 threads hammer a 6-block region with random loads/stores/atomics.
	// The oracle verifies that every load observes the latest committed
	// store to each byte; SWMR is scanned throughout.
	const threads, ops = 8, 400
	for _, mode := range []coherence.Protocol{coherence.Baseline, coherence.FSDetect, coherence.FSLite} {
		mk := func(id int) cpu.ThreadFunc {
			return func(c *cpu.Ctx) {
				rng := rand.New(rand.NewSource(int64(1000*id + 7)))
				for i := 0; i < ops; i++ {
					block := rng.Intn(6)
					sizes := []int{1, 2, 4, 8}
					size := sizes[rng.Intn(4)]
					off := rng.Intn(blk/size) * size
					a := addr(block, off)
					switch rng.Intn(5) {
					case 0, 1:
						c.Load(a, size)
					case 2, 3:
						c.Store(a, size, rng.Uint64())
					case 4:
						c.AtomicAdd(a, size, uint64(rng.Intn(100)))
					}
					if rng.Intn(4) == 0 {
						c.Compute(uint64(rng.Intn(8)))
					}
				}
			}
		}
		var ths []cpu.ThreadFunc
		for i := 0; i < threads; i++ {
			ths = append(ths, mk(i))
		}
		mustRun(t, testConfig(mode), Workload{Name: "stress", Threads: ths})
	}
}

// falseSharingWorkload builds the canonical write-write false sharing
// pattern: each thread RMW-increments its own 8-byte slot of one line.
func falseSharingWorkload(threads, iters int, finals []uint64) Workload {
	base := addr(0, 0)
	mk := func(id int) cpu.ThreadFunc {
		slot := base + memsys.Addr(8*id)
		return func(c *cpu.Ctx) {
			for i := 0; i < iters; i++ {
				c.AtomicAdd(slot, 8, 1)
				c.Compute(2)
			}
			if finals != nil {
				finals[id] = c.Load(slot, 8)
			}
		}
	}
	var ths []cpu.ThreadFunc
	for i := 0; i < threads; i++ {
		ths = append(ths, mk(i))
	}
	return Workload{Name: "false-sharing", Threads: ths}
}

// TestZeroNetLatencyEnginesAgree: with a zero network latency the skip
// engine takes the naive full tick every cycle (step reads arrivals once per
// cycle), so both engines must agree on cycles and every counter.
func TestZeroNetLatencyEnginesAgree(t *testing.T) {
	for _, mode := range []coherence.Protocol{coherence.Baseline, coherence.FSLite} {
		run := func(eng Engine) *Result {
			cfg := testConfig(mode)
			cfg.Params.NetLatency = 0
			cfg.Engine = eng
			return mustRun(t, cfg, falseSharingWorkload(4, 200, nil))
		}
		naive, skip := run(EngineNaive), run(EngineSkip)
		if skip.Cycles != naive.Cycles {
			t.Errorf("%v: skip %d cycles, naive %d", mode, skip.Cycles, naive.Cycles)
		}
		if !reflect.DeepEqual(skip.Stats.Snapshot(), naive.Stats.Snapshot()) {
			t.Errorf("%v: counters diverge between naive and skip", mode)
		}
	}
}

func TestFSDetectFindsFalseSharing(t *testing.T) {
	res := mustRun(t, testConfig(coherence.FSDetect), falseSharingWorkload(4, 200, nil))
	if len(res.Detections) == 0 {
		t.Fatal("FSDetect found nothing")
	}
	want := addr(0, 0).BlockAlign(blk)
	found := false
	for _, d := range res.Detections {
		if d.Addr == want {
			found = true
			if len(d.Writers) < 2 {
				t.Errorf("detection should implicate >=2 writers, got %v", d.Writers)
			}
		} else {
			t.Errorf("spurious detection at %v", d.Addr)
		}
	}
	if !found {
		t.Fatalf("expected detection at %v, got %+v", want, res.Detections)
	}
}

func TestFSLiteRepairsFalseSharing(t *testing.T) {
	const threads, iters = 4, 400
	finB := make([]uint64, threads)
	base, err := New(testConfig(coherence.Baseline), falseSharingWorkload(threads, iters, finB)).Run("base")
	if err != nil {
		t.Fatal(err)
	}
	finF := make([]uint64, threads)
	fsl := mustRun(t, testConfig(coherence.FSLite), falseSharingWorkload(threads, iters, finF))

	for id := 0; id < threads; id++ {
		if finB[id] != iters || finF[id] != iters {
			t.Fatalf("slot %d: baseline %d fslite %d want %d", id, finB[id], finF[id], iters)
		}
	}
	if fsl.Stats.Get(stats.CtrFSPrivatized) == 0 {
		t.Fatal("FSLite never privatized the falsely shared line")
	}
	if fsl.Cycles >= base.Cycles {
		t.Fatalf("FSLite (%d cycles) not faster than baseline (%d cycles)", fsl.Cycles, base.Cycles)
	}
	t.Logf("baseline %d cycles, FSLite %d cycles (%.2fx), privatizations %d, terminations %d",
		base.Cycles, fsl.Cycles, float64(base.Cycles)/float64(fsl.Cycles),
		fsl.Stats.Get(stats.CtrFSPrivatized), fsl.Stats.Get(stats.CtrFSTerminations))
}

func TestFSLiteNoFalseSharingNoHarm(t *testing.T) {
	// Each thread works on its own blocks: FSLite must not privatize and
	// must not slow the program down materially.
	mkwl := func() Workload {
		mk := func(id int) cpu.ThreadFunc {
			return func(c *cpu.Ctx) {
				for i := 0; i < 150; i++ {
					a := addr(10+id*4+(i%4), (i*8)%blk)
					c.Store(a, 8, uint64(i))
					c.Load(a, 8)
					c.Compute(3)
				}
			}
		}
		var ths []cpu.ThreadFunc
		for i := 0; i < 8; i++ {
			ths = append(ths, mk(i))
		}
		return Workload{Name: "private", Threads: ths}
	}
	base, err := New(testConfig(coherence.Baseline), mkwl()).Run("base")
	if err != nil {
		t.Fatal(err)
	}
	fsl := mustRun(t, testConfig(coherence.FSLite), mkwl())
	if fsl.Stats.Get(stats.CtrFSPrivatized) != 0 {
		t.Fatal("private blocks were privatized")
	}
	ratio := float64(fsl.Cycles) / float64(base.Cycles)
	if ratio > 1.05 {
		t.Fatalf("FSLite overhead %.3fx on private workload", ratio)
	}
}

func TestTrueSharingTerminatesPrivatization(t *testing.T) {
	// Phase 1: pure false sharing (gets privatized). Phase 2: a thread
	// reads another thread's slot, forcing a true-sharing conflict that
	// must terminate the episode and still return correct data.
	const iters = 300
	var observed uint64
	base := addr(0, 0)
	bar := &cpu.Barrier{CountAddr: addr(5, 0), SenseAddr: addr(5, 8), Threads: 2}
	wl := Workload{
		Name: "phase-change",
		Threads: []cpu.ThreadFunc{
			func(c *cpu.Ctx) {
				var sense uint64
				for i := 0; i < iters; i++ {
					c.AtomicAdd(base, 8, 1)
				}
				bar.Wait(c, &sense)
			},
			func(c *cpu.Ctx) {
				var sense uint64
				for i := 0; i < iters; i++ {
					c.AtomicAdd(base+8, 8, 1)
				}
				bar.Wait(c, &sense)
				observed = c.Load(base, 8) // cross-slot read: true sharing
			},
		},
	}
	res := mustRun(t, testConfig(coherence.FSLite), wl)
	if observed != iters {
		t.Fatalf("cross-slot read got %d, want %d", observed, iters)
	}
	if res.Stats.Get(stats.CtrFSPrivatized) == 0 {
		t.Fatal("expected the line to be privatized in phase 1")
	}
	if res.Stats.Get(stats.CtrFSTerminations) == 0 {
		t.Fatal("expected the cross-slot read to terminate privatization")
	}
}

func TestDetectionsEmptyWithoutFalseSharing(t *testing.T) {
	mk := func(id int) cpu.ThreadFunc {
		return func(c *cpu.Ctx) {
			for i := 0; i < 100; i++ {
				c.Store(addr(20+id, 0), 8, uint64(i))
			}
		}
	}
	var ths []cpu.ThreadFunc
	for i := 0; i < 4; i++ {
		ths = append(ths, mk(i))
	}
	res := mustRun(t, testConfig(coherence.FSDetect), Workload{Name: "quiet", Threads: ths})
	if len(res.Detections) != 0 {
		t.Fatalf("spurious detections: %+v", res.Detections)
	}
}
