package fuzz

import (
	"errors"
	"fmt"
	"runtime/debug"
	"sort"

	"fscoherence/internal/coherence"
	"fscoherence/internal/cpu"
	"fscoherence/internal/memsys"
	"fscoherence/internal/network"
	"fscoherence/internal/sim"
)

// Options tunes one Execute.
type Options struct {
	// StallCycles is the watchdog threshold: an unfinished core that commits
	// nothing for this many cycles trips the liveness oracle (0 = 200k).
	StallCycles uint64

	// MaxCycles is the hard cycle budget backstopping the watchdog
	// (0 = 8M). Generated programs finish in well under a million cycles.
	MaxCycles uint64

	// Obs optionally attaches the observability layer (replay under -trace).
	Obs ObsAttacher
}

// ObsAttacher matches *obs.Obs without importing it here; Execute passes it
// through to sim.Config.
type ObsAttacher = func(cfg *sim.Config)

// Failure describes one detected protocol violation.
type Failure struct {
	// Kind is "panic", "stall", "deadlock", "oracle", "swmr", "value" or
	// "quiescence", in decreasing severity.
	Kind string

	// Detail is a one-line diagnosis; Dump carries the full state dump
	// (in-flight messages, per-component FSM states) for liveness failures.
	Detail string
	Dump   string
}

func (f *Failure) Error() string {
	if f.Dump != "" {
		return fmt.Sprintf("[%s] %s\n%s", f.Kind, f.Detail, f.Dump)
	}
	return fmt.Sprintf("[%s] %s", f.Kind, f.Detail)
}

// Outcome is the result of executing one program.
type Outcome struct {
	Cycles  uint64
	Failure *Failure // nil when every oracle passed
}

// reference is the sequentially consistent reference execution: the program's
// tracked ops replayed into a flat byte map. The op mix makes the final image
// interleaving-independent (commutative shared updates, single-writer private
// stores), so any replay order is a valid SC witness for the final values.
type reference struct {
	mem   map[memsys.Addr]byte
	words []memsys.Addr // sorted tracked 8-byte-aligned words the checker reads
}

func (r *reference) store(a memsys.Addr, sz int, v uint64) {
	for i := 0; i < sz; i++ {
		r.mem[a+memsys.Addr(i)] = byte(v >> (8 * i))
	}
	r.track(a)
}

func (r *reference) load8(a memsys.Addr) uint64 {
	var v uint64
	for i := 0; i < 8; i++ {
		v |= uint64(r.mem[a+memsys.Addr(i)]) << (8 * i)
	}
	return v
}

func (r *reference) add8(a memsys.Addr, delta uint64) {
	r.store(a&^7, 8, r.load8(a&^7)+delta)
}

// track registers the 8-byte word containing a for the final-value check.
func (r *reference) track(a memsys.Addr) {
	w := a &^ 7
	for _, x := range r.words {
		if x == w {
			return
		}
	}
	r.words = append(r.words, w)
}

// Per-kind address helpers (shared by the executor and the reference).

func fsSlotAddr(a, slot int) memsys.Addr {
	return addrOf(blkFS+a%numFSLines, (slot%fsSlots)*8)
}
func racyAddr(a int) memsys.Addr   { return addrOf(blkRacy, (a%8)*8) }
func reduceAddr(a int) memsys.Addr { return addrOf(blkReduce, (a%8)*8) }
func privAddr(t, a, sz int) memsys.Addr {
	span := privLines * blockBytes
	return privBase(t) + memsys.Addr((a%(span/sz))*sz)
}
func privWordAddr(t, a int) memsys.Addr {
	return privBase(t) + memsys.Addr((a%(privLines*blockBytes/8))*8)
}

var (
	sharedAddr = addrOf(blkShared, 0)
	lockAddr   = addrOf(blkLock, 0)
	lockedAddr = addrOf(blkLocked, 0)
	barCount   = addrOf(blkBarrier, 0)
	barSense   = addrOf(blkBarrier, 8)
)

// buildReference replays the program into the SC reference. Racy words
// (multiple plain-store writers) are never tracked; every other written word
// is. The barrier words are tracked too: after the final barrier the count
// must read 0 and the sense 1.
func buildReference(p *Program) *reference {
	r := &reference{mem: make(map[memsys.Addr]byte)}
	for t, ops := range p.Threads {
		for _, op := range ops {
			switch op.K {
			case KFSAdd:
				r.add8(fsSlotAddr(op.A, t), op.V)
			case KSharedAdd:
				r.add8(sharedAddr, op.V)
			case KLockedAdd:
				r.add8(lockedAddr, op.V)
			case KReduce:
				r.add8(reduceAddr(op.A), op.V)
			case KPrivStore:
				r.store(privAddr(t, op.A, op.Sz), op.Sz, op.V)
			}
		}
	}
	r.store(barCount, 8, 0)
	r.store(barSense, 8, 1)
	r.track(lockAddr) // final value 0: every acquire was released
	sort.Slice(r.words, func(i, j int) bool { return r.words[i] < r.words[j] })
	return r
}

// config assembles the simulation configuration for a program.
func config(p *Program, opt Options) (sim.Config, error) {
	mode, err := p.Mode()
	if err != nil {
		return sim.Config{}, err
	}
	cfg := sim.DefaultConfig(mode)
	cfg.Engine = sim.EngineNaive // the watchdog's cycle hook disables skipping anyway
	cfg.CheckOracle = true
	cfg.CheckSWMR = true
	cfg.SWMRPeriod = 16
	cfg.MaxCycles = opt.MaxCycles
	if cfg.MaxCycles == 0 {
		cfg.MaxCycles = 8_000_000
	}
	if p.Hostile {
		// Tiny caches and thresholds: evictions, inclusion recalls and
		// privatization churn within a few dozen operations (the same shape
		// as the sim package's stress suite).
		cfg.Params.L1Entries = 16
		cfg.Params.L1Ways = 2
		cfg.Params.Slices = 2
		cfg.Params.LLCEntriesSlice = 32
		cfg.Params.LLCWays = 4
		cfg.Core.TauP = 4
		cfg.Core.TauR1 = 4
		cfg.Core.SAMEntries = 8
		cfg.Core.SAMWays = 2
	}
	if p.L2 {
		cfg.Params.L2Entries = 32
		cfg.Params.L2Ways = 4
	}
	cfg.Params.NonInclusiveLLC = p.NonInclusive
	if p.BigMachine {
		// Applied after Hostile so the mesh machine keeps its 8 slices:
		// recalls, metadata traffic and privatization control all route
		// across the multi-slice directory under fault injection.
		cfg.Params = cfg.Params.ScaleToCores(64)
		cfg.Params.Topology = network.TopoMesh
		if cfg.Params.LLCEntriesSlice > 64 {
			cfg.Params.LLCEntriesSlice = 64
			cfg.Params.LLCWays = 4
		}
	}
	cfg.Faults = p.Faults.Plan()
	if opt.Obs != nil {
		opt.Obs(&cfg)
	}
	return cfg, nil
}

// threadFunc builds the simulated thread for worker t.
func threadFunc(t int, ops []OpSpec, bar *cpu.Barrier) cpu.ThreadFunc {
	return func(c *cpu.Ctx) {
		var sense uint64
		for _, op := range ops {
			switch op.K {
			case KFSAdd:
				c.AtomicAdd(fsSlotAddr(op.A, t), 8, op.V)
			case KFSLoad:
				c.Load(fsSlotAddr(op.A, t+1+op.A), 8)
			case KSharedAdd:
				c.AtomicAdd(sharedAddr, 8, op.V)
			case KLockedAdd:
				c.LockAcquire(lockAddr)
				v := c.Load(lockedAddr, 8)
				c.StoreSync(lockedAddr, 8, v+op.V)
				c.LockRelease(lockAddr)
			case KRacyStore:
				c.Store(racyAddr(op.A), 8, op.V)
			case KRacyLoad:
				c.Load(racyAddr(op.A), 8)
			case KPrivStore:
				c.Store(privAddr(t, op.A, op.Sz), op.Sz, op.V)
			case KPrivLoad:
				c.Load(privWordAddr(t, op.A), 8)
			case KReduce:
				c.Reduce(reduceAddr(op.A), 8, op.V)
			case KCompute:
				c.Compute(uint64(op.A%24) + 1)
			case KPrefetch:
				c.Prefetch(addrOf(blkFS+op.A%numFSLines, 0))
			}
		}
		bar.Wait(c, &sense)
	}
}

// Execute runs one program under full oracle supervision and returns the
// outcome. It never lets a panic escape: protocol panics (handler invariant
// violations) are converted into a "panic" failure.
func Execute(p *Program, opt Options) (out *Outcome) {
	out = &Outcome{}
	if err := p.Validate(); err != nil {
		out.Failure = &Failure{Kind: "panic", Detail: err.Error()}
		return out
	}
	cfg, err := config(p, opt)
	if err != nil {
		out.Failure = &Failure{Kind: "panic", Detail: err.Error()}
		return out
	}

	ref := buildReference(p)
	workers := len(p.Threads)
	bar := &cpu.Barrier{CountAddr: barCount, SenseAddr: barSense, Threads: workers + 1}

	var threads []cpu.ThreadFunc
	for t := 0; t < workers; t++ {
		threads = append(threads, threadFunc(t, p.Threads[t], bar))
	}
	// The checker runs on its own core: it joins the final barrier, then
	// reads every tracked word. Its loads conflict with any still-open
	// privatized episode, forcing the byte merge the value check depends on.
	got := make([]uint64, len(ref.words))
	threads = append(threads, func(c *cpu.Ctx) {
		var sense uint64
		bar.Wait(c, &sense)
		for i, w := range ref.words {
			got[i] = c.Load(w, 8)
		}
	})

	wl := sim.Workload{Name: fmt.Sprintf("fuzz-%d", p.Seed), Threads: threads}
	if p.UseReduction {
		wl.ReductionRegions = []coherence.AddrRange{{Start: addrOf(blkReduce, 0), Size: blockBytes}}
	}

	sys := sim.New(cfg, wl)
	if p.Sabotage != nil {
		sab, err := p.Sabotage.Sabotage()
		if err != nil {
			out.Failure = &Failure{Kind: "panic", Detail: err.Error()}
			return out
		}
		sys.Net().SetSabotage(sab)
	}

	stall := opt.StallCycles
	if stall == 0 {
		stall = 200_000
	}
	wd := NewWatchdog(sys, cfg.Params.Cores, stall)
	wd.Install()

	defer func() {
		if r := recover(); r != nil {
			out.Failure = &Failure{
				Kind:   "panic",
				Detail: fmt.Sprint(r),
				Dump:   string(debug.Stack()),
			}
		}
	}()

	res, err := sys.Run(wl.Name)
	if err != nil {
		switch {
		case wd.Tripped():
			out.Cycles = wd.TripCycle()
			out.Failure = &Failure{Kind: "stall", Detail: wd.Reason(), Dump: wd.Dump()}
		case errors.Is(err, sim.ErrDeadlock):
			out.Failure = &Failure{Kind: "deadlock", Detail: err.Error(), Dump: sys.DumpState()}
		default:
			out.Failure = &Failure{Kind: "deadlock", Detail: err.Error(), Dump: sys.DumpState()}
		}
		return out
	}
	out.Cycles = res.Cycles

	if len(res.OracleViolations) > 0 {
		out.Failure = &Failure{Kind: "oracle", Detail: res.OracleViolations[0],
			Dump: fmt.Sprintf("%d violation(s) total", len(res.OracleViolations))}
		return out
	}
	if len(res.SWMRViolations) > 0 {
		out.Failure = &Failure{Kind: "swmr", Detail: res.SWMRViolations[0],
			Dump: fmt.Sprintf("%d violation(s) total", len(res.SWMRViolations))}
		return out
	}
	for i, w := range ref.words {
		if want := ref.load8(w); got[i] != want {
			out.Failure = &Failure{Kind: "value",
				Detail: fmt.Sprintf("word %v = %#x, SC reference %#x", w, got[i], want)}
			return out
		}
	}
	if bad := quiescenceViolations(sys, cfg.Params.Cores, cfg.Params.Slices); len(bad) > 0 {
		out.Failure = &Failure{Kind: "quiescence", Detail: bad[0],
			Dump: fmt.Sprintf("%d violation(s) total", len(bad))}
		return out
	}
	return out
}
