package sim

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"fscoherence/internal/coherence"
	"fscoherence/internal/cpu"
	"fscoherence/internal/memsys"
	"fscoherence/internal/stats"
)

// smallConfig builds a deliberately hostile configuration: tiny L1s and LLC
// (constant inclusion recalls and SAM/metadata churn), an aggressive
// privatization threshold, and a tiny SAM table (forced terminations).
func smallConfig(mode coherence.Protocol) Config {
	cfg := testConfig(mode)
	cfg.Params.L1Entries = 16
	cfg.Params.L1Ways = 2
	cfg.Params.Slices = 2
	cfg.Params.LLCEntriesSlice = 32
	cfg.Params.LLCWays = 4
	cfg.Core.TauP = 4
	cfg.Core.TauR1 = 4
	cfg.Core.SAMEntries = 8
	cfg.Core.SAMWays = 2
	return cfg
}

// stressThread mixes private traffic, falsely shared slots, truly shared
// atomics, locks and occasional cross-slot reads over a working set larger
// than the caches.
func stressThread(id, threads, ops int, seed int64) cpu.ThreadFunc {
	return func(c *cpu.Ctx) {
		rng := rand.New(rand.NewSource(seed + int64(id)))
		fsBase := addr(0, 0) // blocks 0-1: falsely shared slots
		lock := addr(2, 0)   // block 2: lock (true sharing)
		shared := addr(3, 0) // block 3: shared atomic counter
		for i := 0; i < ops; i++ {
			switch rng.Intn(10) {
			case 0, 1, 2: // false sharing: own slot in a hot line
				slot := fsBase + memsys.Addr(8*id)
				c.AtomicAdd(slot, 8, 1)
			case 3: // rare cross-slot read: forces termination
				victim := (id + 1 + rng.Intn(threads-1)) % threads
				c.Load(fsBase+memsys.Addr(8*victim), 8)
			case 4: // truly shared atomic
				c.AtomicAdd(shared, 8, 1)
			case 5: // lock-protected critical section
				c.LockAcquire(lock)
				v := c.Load(addr(4, 0), 8)
				c.StoreSync(addr(4, 0), 8, v+1)
				c.LockRelease(lock)
			default: // private traffic over a large working set
				blkIdx := 8 + id*16 + rng.Intn(16)
				off := rng.Intn(8) * 8
				a := addr(blkIdx, off)
				if rng.Intn(2) == 0 {
					c.Store(a, 8, rng.Uint64())
				} else {
					c.Load(a, 8)
				}
			}
			if rng.Intn(3) == 0 {
				c.Compute(uint64(rng.Intn(6)))
			}
		}
	}
}

func TestStressSmallCachesAllModes(t *testing.T) {
	const threads, ops = 8, 250
	for _, mode := range []coherence.Protocol{coherence.Baseline, coherence.FSDetect, coherence.FSLite} {
		for seed := int64(1); seed <= 3; seed++ {
			name := fmt.Sprintf("%v/seed%d", mode, seed)
			t.Run(name, func(t *testing.T) {
				var ths []cpu.ThreadFunc
				for i := 0; i < threads; i++ {
					ths = append(ths, stressThread(i, threads, ops, seed*1000))
				}
				res := mustRun(t, smallConfig(mode), Workload{Name: name, Threads: ths})
				if mode == coherence.FSLite && seed == 1 {
					t.Logf("privatizations=%d terminations=%d (conflict=%d evict=%d sam=%d) aborts=%d",
						res.Stats.Get(stats.CtrFSPrivatized),
						res.Stats.Get(stats.CtrFSTerminations),
						res.Stats.Get(stats.CtrFSTermConflict),
						res.Stats.Get(stats.CtrFSTermEviction),
						res.Stats.Get(stats.CtrFSTermSAMEvict),
						res.Stats.Get(stats.CtrFSPrivAborted))
				}
			})
		}
	}
}

func TestStressPrivatizationChurn(t *testing.T) {
	// Alternating phases of pure false sharing and deliberate conflicts so
	// privatized episodes start and terminate repeatedly; the hysteresis
	// counter must keep the system live and correct throughout.
	const threads, rounds = 4, 30
	finals := make([]uint64, threads)
	mk := func(id int) cpu.ThreadFunc {
		slot := addr(0, 8*id)
		return func(c *cpu.Ctx) {
			rng := rand.New(rand.NewSource(int64(id + 42)))
			var mine uint64
			for r := 0; r < rounds; r++ {
				for i := 0; i < 12; i++ {
					c.AtomicAdd(slot, 8, 1)
					mine++
				}
				if rng.Intn(3) == 0 {
					other := (id + 1) % threads
					c.Load(addr(0, 8*other), 8) // cross read: conflict
				}
			}
			finals[id] = c.Load(slot, 8)
			_ = mine
		}
	}
	var ths []cpu.ThreadFunc
	for i := 0; i < threads; i++ {
		ths = append(ths, mk(i))
	}
	cfg := smallConfig(coherence.FSLite)
	res := mustRun(t, cfg, Workload{Name: "churn", Threads: ths})
	for id, v := range finals {
		if v != rounds*12 {
			t.Fatalf("slot %d = %d, want %d", id, v, rounds*12)
		}
	}
	if res.Stats.Get(stats.CtrFSTerminations) == 0 {
		t.Fatal("expected terminations under churn")
	}
}

func TestStressMultiBlockFalseSharing(t *testing.T) {
	// Several falsely shared lines at once: exercises SAM capacity and the
	// forced-termination path on SAM eviction (SAM has 8 entries here).
	const threads, lines, iters = 8, 12, 60
	mk := func(id int) cpu.ThreadFunc {
		return func(c *cpu.Ctx) {
			rng := rand.New(rand.NewSource(int64(id)))
			for i := 0; i < iters; i++ {
				line := rng.Intn(lines)
				c.AtomicAdd(addr(30+line, 8*id), 8, 1)
			}
		}
	}
	var ths []cpu.ThreadFunc
	for i := 0; i < threads; i++ {
		ths = append(ths, mk(i))
	}
	mustRun(t, smallConfig(coherence.FSLite), Workload{Name: "multi-line", Threads: ths})
}

func TestOOOBasicCorrectness(t *testing.T) {
	const threads, ops = 4, 200
	for _, mode := range []coherence.Protocol{coherence.Baseline, coherence.FSLite} {
		cfg := testConfig(mode)
		cfg.OOO = true
		var ths []cpu.ThreadFunc
		for i := 0; i < threads; i++ {
			ths = append(ths, stressThread(i, threads, ops, 77))
		}
		mustRun(t, cfg, Workload{Name: "ooo-stress", Threads: ths})
	}
}

func TestOOOFasterThanInOrder(t *testing.T) {
	// Independent async stores over many blocks: the OOO core must overlap
	// the misses and finish well ahead of the in-order core.
	mk := func(id int) cpu.ThreadFunc {
		return func(c *cpu.Ctx) {
			for i := 0; i < 120; i++ {
				c.Store(addr(100+id*40+i%40, (i*8)%blk), 8, uint64(i))
				c.Compute(2)
			}
		}
	}
	wl := func() Workload {
		var ths []cpu.ThreadFunc
		for i := 0; i < 4; i++ {
			ths = append(ths, mk(i))
		}
		return Workload{Name: "ooo-overlap", Threads: ths}
	}
	inCfg := testConfig(coherence.Baseline)
	inRes := mustRun(t, inCfg, wl())
	oooCfg := testConfig(coherence.Baseline)
	oooCfg.OOO = true
	oooRes := mustRun(t, oooCfg, wl())
	if oooRes.Cycles*2 >= inRes.Cycles {
		t.Fatalf("OOO %d cycles vs in-order %d: expected >2x speedup", oooRes.Cycles, inRes.Cycles)
	}
	t.Logf("in-order %d cycles, OOO %d cycles (%.1fx)", inRes.Cycles, oooRes.Cycles,
		float64(inRes.Cycles)/float64(oooRes.Cycles))
}

func TestPrefetchDoesNotDisturb(t *testing.T) {
	for _, mode := range []coherence.Protocol{coherence.Baseline, coherence.FSLite} {
		var got uint64
		wl := Workload{
			Name: "prefetch",
			Threads: []cpu.ThreadFunc{
				func(c *cpu.Ctx) {
					c.StoreSync(addr(0, 0), 8, 99)
				},
				func(c *cpu.Ctx) {
					c.Prefetch(addr(0, 0))
					for got != 99 {
						got = c.Load(addr(0, 0), 8)
						c.Compute(4)
					}
				},
			},
		}
		mustRun(t, testConfig(mode), wl)
		if got != 99 {
			t.Fatalf("%v: prefetch-then-load got %d", mode, got)
		}
	}
}

func TestExternalSocketTerminatesPrivatization(t *testing.T) {
	// Privatize a line, then simulate an access forwarded from another
	// socket (§V-C condition iv): the episode must terminate. The access
	// arrives between budgeted advance windows, as work created outside
	// any tick, which the skip engine picks up through wakeAll.
	for _, eng := range []struct {
		name string
		e    Engine
	}{{"naive", EngineNaive}, {"skip", EngineSkip}} {
		t.Run(eng.name, func(t *testing.T) {
			cfg := testConfig(coherence.FSLite)
			cfg.Engine = eng.e
			var ths []cpu.ThreadFunc
			for i := 0; i < 4; i++ {
				slot := addr(0, 8*i)
				ths = append(ths, func(c *cpu.Ctx) {
					for j := 0; j < 300; j++ {
						c.AtomicAdd(slot, 8, 1)
					}
				})
			}
			s := New(cfg, Workload{Name: "external", Threads: ths})
			defer s.Stop()
			target := addr(0, 0).BlockAlign(blk)
			slice := cfg.Params.HomeSlice(uint64(target))
			poked := false
			for {
				finished, err := s.advance("external", cfg.MaxCycles, false, 64)
				if err != nil {
					t.Fatal(err)
				}
				if finished {
					break
				}
				if !poked {
					poked = s.Dir(slice).ExternalAccess(target)
				}
			}
			res := s.buildResult("external")
			for _, v := range append(res.OracleViolations, res.SWMRViolations...) {
				t.Errorf("oracle: %s", v)
			}
			if !poked {
				t.Fatal("the line never privatized between windows, so no external access was accepted")
			}
			if res.Stats.Get(stats.CtrFSTerminations) == 0 {
				t.Fatal("external access did not terminate the episode")
			}
		})
	}
}

func TestStressThreeLevelHierarchy(t *testing.T) {
	// The §VII private L2 under full verification: tiny L1s force constant
	// L1<->L2 movement while the oracle and SWMR scanner watch.
	const threads, ops = 8, 250
	for _, mode := range []coherence.Protocol{coherence.Baseline, coherence.FSLite} {
		cfg := smallConfig(mode)
		cfg.Params.L2Entries = 32
		cfg.Params.L2Ways = 4
		cfg.Params.L2HitCycles = 12
		var ths []cpu.ThreadFunc
		for i := 0; i < threads; i++ {
			ths = append(ths, stressThread(i, threads, ops, 4242))
		}
		mustRun(t, cfg, Workload{Name: "l2-stress", Threads: ths})
	}
}

func TestStressReductionRegions(t *testing.T) {
	// §VII reductions under duress: tiny caches evict privatized copies
	// mid-reduction and the tiny SAM forces terminations, yet the final
	// sums (validated by the oracle through the consumer's loads) must be
	// exact.
	const threads, iters, words = 4, 300, 8
	cfg := smallConfig(coherence.FSLite)
	base := memsys.Addr(0x40000)
	region := coherence.AddrRange{Start: base, Size: words * 8}
	bar := &cpu.Barrier{CountAddr: 0x50000, SenseAddr: 0x50008, Threads: threads + 1}
	var ths []cpu.ThreadFunc
	for tid := 0; tid < threads; tid++ {
		tid := tid
		ths = append(ths, func(c *cpu.Ctx) {
			rng := rand.New(rand.NewSource(int64(tid + 9)))
			var sense uint64
			for i := 0; i < iters; i++ {
				c.Reduce(base+memsys.Addr(8*rng.Intn(words)), 8, uint64(1+rng.Intn(3)))
				if rng.Intn(4) == 0 { // cache pressure: evict PRV copies
					c.Load(memsys.Addr(0x80000+tid*0x10000+rng.Intn(32)*64), 8)
				}
			}
			bar.Wait(c, &sense)
		})
	}
	sums := make([]uint64, words)
	ths = append(ths, func(c *cpu.Ctx) {
		var sense uint64
		bar.Wait(c, &sense)
		for w := 0; w < words; w++ {
			sums[w] = c.Load(base+memsys.Addr(8*w), 8)
		}
	})
	res := mustRun(t, cfg, Workload{Name: "reduce-stress", Threads: ths,
		ReductionRegions: []coherence.AddrRange{region}})
	var total uint64
	for _, s := range sums {
		total += s
	}
	if total == 0 {
		t.Fatal("no reductions observed")
	}
	t.Logf("total=%d privatizations=%d terminations=%d",
		total, res.Stats.Get(stats.CtrFSPrivatized), res.Stats.Get(stats.CtrFSTerminations))
}

// ---------------------------------------------------------------------------
// Data-value invariant: merged memory equals a sequentially-consistent
// reference execution.
// ---------------------------------------------------------------------------

// valOp is one operation of the data-value workload. The op mix is chosen so
// the final memory image is independent of thread interleaving — atomic adds
// and reductions commute, and plain stores target thread-private addresses —
// which makes a byte-precise sequentially-consistent reference computable by
// replaying the ops into a flat byte map in any order.
type valOp struct {
	kind int // 0 = atomic add (falsely shared slot), 1 = reduce, 2 = atomic add (shared), 3 = private store, 4 = private load
	a    memsys.Addr
	size int
	val  uint64
}

// refMem is the byte-granular sequentially-consistent reference memory.
type refMem map[memsys.Addr]byte

func (m refMem) load(a memsys.Addr, size int) uint64 {
	var buf [8]byte
	for i := 0; i < size; i++ {
		buf[i] = m[a+memsys.Addr(i)]
	}
	return binary.LittleEndian.Uint64(buf[:])
}

func (m refMem) store(a memsys.Addr, size int, v uint64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	for i := 0; i < size; i++ {
		m[a+memsys.Addr(i)] = buf[i]
	}
}

func (m refMem) add(a memsys.Addr, size int, delta uint64) {
	m.store(a, size, m.load(a, size)+delta)
}

// genValOps builds thread id's deterministic op stream for the data-value
// workload. Layout: falsely shared slots in blocks 0-1 (four 8-byte slots
// per line), a declared reduction region in block 40, a truly shared atomic
// counter in block 3, and a 4-line private region per thread from block 60.
func genValOps(id, threads, ops int, seed int64) []valOp {
	rng := rand.New(rand.NewSource(seed + int64(id)*7919))
	slot := addr(id%2, 16*(id/2)) // two falsely shared lines, 4 slots each
	priv := addr(60+id*4, 0)
	out := make([]valOp, 0, ops)
	for i := 0; i < ops; i++ {
		switch rng.Intn(8) {
		case 0, 1, 2:
			out = append(out, valOp{kind: 0, a: slot, size: 8, val: uint64(1 + rng.Intn(7))})
		case 3:
			out = append(out, valOp{kind: 1, a: addr(40, 8*rng.Intn(8)), size: 8, val: uint64(1 + rng.Intn(3))})
		case 4:
			out = append(out, valOp{kind: 2, a: addr(3, 0), size: 8, val: 1})
		case 5, 6:
			// Sub-word private stores make the comparison byte-precise:
			// sizes 1, 2, 4 and 8 at arbitrary aligned offsets.
			size := 1 << rng.Intn(4)
			off := rng.Intn(4*blk/size) * size
			out = append(out, valOp{kind: 3, a: priv + memsys.Addr(off), size: size, val: rng.Uint64()})
		default:
			off := rng.Intn(4*blk/8) * 8
			out = append(out, valOp{kind: 4, a: priv + memsys.Addr(off), size: 8})
		}
	}
	return out
}

// TestDataValueInvariant runs a hostile mixed workload (false sharing,
// reductions, shared atomics, sub-word private traffic, tiny caches and an
// aggressive privatization threshold) under every protocol and asserts that
// the merged memory contents — observed through coherent loads after a full
// barrier, which forces FSLite's PRV merge of every surviving privatized
// copy — are byte-for-byte equal to the sequentially-consistent reference
// execution of the same ops.
func TestDataValueInvariant(t *testing.T) {
	const threads, ops = 7, 300 // 7 workers + 1 checker = the 8 simulated cores
	region := coherence.AddrRange{Start: addr(40, 0), Size: blk}
	for _, mode := range []coherence.Protocol{coherence.Baseline, coherence.FSDetect, coherence.FSLite} {
		for seed := int64(1); seed <= 2; seed++ {
			t.Run(fmt.Sprintf("%v/seed%d", mode, seed), func(t *testing.T) {
				// Reference execution and touched-word inventory.
				ref := refMem{}
				touched := map[memsys.Addr]bool{}
				streams := make([][]valOp, threads)
				for id := 0; id < threads; id++ {
					streams[id] = genValOps(id, threads, ops, seed*100_000)
					for _, op := range streams[id] {
						if op.kind == 4 {
							continue
						}
						switch op.kind {
						case 3:
							ref.store(op.a, op.size, op.val)
						default:
							ref.add(op.a, op.size, op.val)
						}
						touched[op.a.BlockAlign(8)] = true
					}
				}
				var words []memsys.Addr
				for a := range touched {
					words = append(words, a)
				}
				sort.Slice(words, func(i, j int) bool { return words[i] < words[j] })

				// Simulated execution: replay each stream, then a checker
				// thread reads every touched word through the hierarchy.
				cfg := smallConfig(mode)
				bar := &cpu.Barrier{CountAddr: addr(55, 0), SenseAddr: addr(55, 8), Threads: threads + 1}
				var ths []cpu.ThreadFunc
				for id := 0; id < threads; id++ {
					stream := streams[id]
					ths = append(ths, func(c *cpu.Ctx) {
						var sense uint64
						for _, op := range stream {
							switch op.kind {
							case 0, 2:
								c.AtomicAdd(op.a, op.size, op.val)
							case 1:
								c.Reduce(op.a, op.size, op.val)
							case 3:
								c.Store(op.a, op.size, op.val)
							case 4:
								c.Load(op.a, op.size)
							}
						}
						bar.Wait(c, &sense)
					})
				}
				got := make([]uint64, len(words))
				ths = append(ths, func(c *cpu.Ctx) {
					var sense uint64
					bar.Wait(c, &sense)
					for i, a := range words {
						got[i] = c.Load(a, 8)
					}
				})
				res := mustRun(t, cfg, Workload{Name: "data-value", Threads: ths,
					ReductionRegions: []coherence.AddrRange{region}})

				bad := 0
				for i, a := range words {
					if want := ref.load(a, 8); got[i] != want {
						t.Errorf("%v: word %v = %#x, reference %#x", mode, a, got[i], want)
						if bad++; bad > 8 {
							t.Fatal("too many mismatches")
						}
					}
				}
				if mode == coherence.FSLite && res.Stats.Get(stats.CtrFSPrivatized) == 0 {
					t.Fatal("data-value workload never privatized: PRV merge path not exercised")
				}
			})
		}
	}
}

func TestStressNonInclusiveLLC(t *testing.T) {
	// §VII sparse directory / non-inclusive LLC under verification: the
	// tiny data array constantly drops and refetches blocks whose directory
	// entries (and L1 copies) survive.
	const threads, ops = 8, 200
	for _, mode := range []coherence.Protocol{coherence.Baseline, coherence.FSLite} {
		cfg := smallConfig(mode)
		cfg.Params.NonInclusiveLLC = true
		cfg.Params.LLCEntriesSlice = 16 // data slots
		cfg.Params.LLCWays = 4
		cfg.Params.DirEntriesSlice = 64
		cfg.Params.DirWays = 8
		var ths []cpu.ThreadFunc
		for i := 0; i < threads; i++ {
			ths = append(ths, stressThread(i, threads, ops, 777))
		}
		mustRun(t, cfg, Workload{Name: "noninclusive-stress", Threads: ths})
	}
}

func TestReductionAndFalseSharingOnOneLine(t *testing.T) {
	// A single line whose first half is a declared reduction region (all
	// threads accumulate into the same words) and whose second half holds
	// per-thread falsely shared slots: the privatized episode must merge
	// reduction words by delta-sum and private slots by last-writer copy.
	cfg := testConfig(coherence.FSLite)
	cfg.Core.TauP = 4
	cfg.Core.TauR1 = 4
	base := memsys.Addr(0x70000)
	region := coherence.AddrRange{Start: base, Size: 16} // words 0-1
	const threads, iters = 4, 200
	bar := &cpu.Barrier{CountAddr: 0x71000, SenseAddr: 0x71008, Threads: threads + 1}
	var ths []cpu.ThreadFunc
	for tid := 0; tid < threads; tid++ {
		tid := tid
		ths = append(ths, func(c *cpu.Ctx) {
			var sense uint64
			slot := base + memsys.Addr(16+8*tid) // private falsely shared slot
			for i := 0; i < iters; i++ {
				c.Reduce(base+memsys.Addr(8*(i%2)), 8, 1)
				c.AtomicAdd(slot, 8, 1)
			}
			bar.Wait(c, &sense)
		})
	}
	var sums [2]uint64
	var slots [4]uint64
	ths = append(ths, func(c *cpu.Ctx) {
		var sense uint64
		bar.Wait(c, &sense)
		for w := 0; w < 2; w++ {
			sums[w] = c.Load(base+memsys.Addr(8*w), 8)
		}
		for s := 0; s < 4; s++ {
			slots[s] = c.Load(base+memsys.Addr(16+8*s), 8)
		}
	})
	mustRun(t, cfg, Workload{Name: "mixed-line", Threads: ths,
		ReductionRegions: []coherence.AddrRange{region}})
	if sums[0]+sums[1] != threads*iters {
		t.Fatalf("reduction sums = %v, want total %d", sums, threads*iters)
	}
	for i, v := range slots {
		if v != iters {
			t.Fatalf("slot %d = %d, want %d", i, v, iters)
		}
	}
}
