// Package sim assembles and runs a complete simulated system: cores, L1
// controllers, interconnect, LLC/directory slices and backing memory, with
// optional FSDetect/FSLite policies attached, a golden-memory oracle and an
// SWMR invariant checker for the test suite.
package sim

import (
	"errors"
	"fmt"

	"fscoherence/internal/coherence"
	"fscoherence/internal/core"
	"fscoherence/internal/cpu"
	"fscoherence/internal/forensics"
	"fscoherence/internal/memsys"
	"fscoherence/internal/network"
	"fscoherence/internal/obs"
	"fscoherence/internal/sample"
	"fscoherence/internal/stats"
)

// Engine selects the simulation loop strategy. All engines are cycle-exact:
// they produce byte-identical results (cycle counts, counter snapshots,
// traces, detections) for the same configuration and workload.
type Engine int

const (
	// EngineSkip, the default, steps the whole machine as one shard
	// (shard.go). A stepped cycle ticks only the components that are due —
	// those whose cached wake-up (NextEvent) has come, and every L1 and
	// directory slice when a message is deliverable — and the loop then
	// fast-forwards to the cycle before the next wake-up. Cores credit the
	// stall accounting of elided and skipped ticks via SkipIdle, so neither
	// is visible. A run with a cycle hook or a zero network latency steps
	// with the naive full tick instead (see advance).
	EngineSkip Engine = iota

	// EngineNaive ticks every component on every cycle (stepCycle) — the
	// reference the other engines are proven against (see
	// TestEngineEquivalence).
	EngineNaive

	// EngineParallel is the conservative parallel discrete-event engine: it
	// shards cores+L1s (and directory slices) across OS threads, each shard
	// stepping with the skip engine's shard code over lookahead epochs
	// bounded by the network's minimum delivery latency, with all network
	// traffic replayed in global order at epoch barriers (see parallel.go).
	// Byte-identical to the sequential engines; configurations it cannot
	// parallelize (fault injection, observability, verification oracles,
	// checkpointing) fall back to EngineSkip at construction (compat.go).
	EngineParallel
)

// Config describes one simulation run.
type Config struct {
	Params coherence.Params
	Mode   coherence.Protocol

	// Engine selects the simulation loop (default EngineSkip).
	Engine Engine

	// Shards is the worker-thread count for EngineParallel (0 picks one
	// per 8 cores, at most GOMAXPROCS; ignored by the sequential engines).
	// Results are byte-identical across all shard counts.
	Shards int

	// Core holds the FSDetect/FSLite tunables; ignored in Baseline mode.
	// Cores/BlockSize/Mode are filled in from Params automatically.
	Core core.Config

	// OOO selects the out-of-order core model with the given width and ROB
	// size; MSHRs sets the per-L1 miss concurrency (1 for in-order).
	OOO      bool
	OOOWidth int
	ROBSize  int
	MSHRs    int

	// CheckOracle verifies every load against a byte-granular golden
	// memory; CheckSWMR scans coherence states every SWMRPeriod cycles.
	CheckOracle bool
	CheckSWMR   bool
	SWMRPeriod  uint64

	// MaxCycles aborts the run as deadlocked when exceeded (0 = 500M).
	MaxCycles uint64

	// Faults, when non-nil, installs a deterministic network fault-injection
	// plan (seeded delivery jitter and burst delays; see network.FaultPlan
	// and internal/fuzz). Injection stays within the protocol-legal delivery
	// contract, so all oracles must still hold.
	Faults *network.FaultPlan

	// Obs attaches the unified observability layer (event tracing and
	// interval metrics). Nil disables it entirely at zero per-event cost.
	Obs *obs.Obs

	// Forensics attaches the per-line flight recorder (access heatmaps,
	// decision timelines, repair-efficacy attribution). Nil disables it
	// entirely at zero per-event cost.
	Forensics *forensics.Recorder

	// Sample enables SMARTS-style interval sampling: detailed windows of
	// Sample.Detailed committed accesses (full timing under the skip engine)
	// alternate with functional-warming windows of Sample.Warming accesses (no
	// timing; see coherence.Warmer). Timing-domain counters are estimated from
	// the detailed windows with confidence intervals (Result.Sampled); all
	// other counters accrue exactly. Requires the in-order two-level inclusive
	// machine with no observers (compat.go holds the full table).
	Sample sample.Spec

	// CheckpointEvery enables periodic checkpointing: for detailed runs, a
	// drain boundary every N committed L1D accesses; for sampled runs, a
	// snapshot at the first existing window boundary after N accesses (no
	// extra drains). 0 disables. The cadence is part of the run's semantics:
	// drains perturb timing, so byte-equality is defined per cadence (see
	// checkpoint.go). Requires the same machine shape as sampling plus no
	// oracles/observers/faults/obs/forensics (compat.go).
	CheckpointEvery uint64

	// CheckpointSink receives the machine state at each checkpoint boundary.
	// A sink error aborts the run with ErrStopped. Nil with CheckpointEvery
	// set keeps the boundaries (cadence semantics) without snapshotting —
	// how a resumed run that no longer writes checkpoints stays
	// byte-identical to its donor.
	CheckpointSink func(*MachineState) error

	// Cancel, when non-nil, is polled roughly once per loop iteration in
	// every engine; when it returns true the run aborts with ErrStopped.
	// Unlike RequestStop it may be flipped from another goroutine (the
	// runner's watchdog) as long as the func itself is race-free (e.g. an
	// atomic load).
	Cancel func() bool
}

// DefaultConfig returns a Table II system in the given protocol mode with
// verification disabled.
func DefaultConfig(mode coherence.Protocol) Config {
	p := coherence.DefaultParams()
	return Config{
		Params:     p,
		Mode:       mode,
		Core:       core.DefaultConfig(p.Cores, p.BlockSize, mode),
		OOOWidth:   8,
		ROBSize:    192,
		MSHRs:      1,
		SWMRPeriod: 64,
	}
}

// Workload supplies one thread function per core. Threads with index >=
// len(Threads) idle. A nil entry also idles.
type Workload struct {
	Name    string
	Threads []cpu.ThreadFunc

	// ReductionRegions are §VII reduction declarations registered with
	// every directory slice (FSDetect/FSLite modes).
	ReductionRegions []coherence.AddrRange
}

// Result summarizes a completed run.
type Result struct {
	Name       string
	Mode       coherence.Protocol
	Cycles     uint64
	Stats      *stats.Set
	Detections []core.Detection

	// Contended lists contended truly-shared lines (typically lock words) —
	// the §VII detection extension.
	Contended []core.Detection

	// OracleViolations and SWMRViolations are non-empty only when the
	// corresponding checks were enabled and a protocol bug was observed.
	OracleViolations []string
	SWMRViolations   []string

	// Sampled is non-nil for interval-sampled runs (Config.Sample): the
	// per-counter estimates with confidence intervals, plus window accounting.
	// For sampled runs, Cycles and the timing-domain counters in Stats hold
	// the rounded estimate means.
	Sampled *SampledRun
}

// System is an assembled simulation ready to run.
type System struct {
	cfg    Config
	stats  *stats.Set
	net    *network.Network
	mem    *memsys.Memory
	l1s    []*coherence.L1
	dirs   []*coherence.Dir
	cores  []cpu.Core
	oracle *memsys.Oracle
	cycle  uint64

	dirPolicies []*core.DirSide
	pams        []*core.PAM
	swmrBad     []string

	// resumedSample, set by Restore on a sampled checkpoint, carries the
	// estimator state runSampled re-seeds before its loop.
	resumedSample *SampleState

	// tracer / metrics are the unified observability attachments (nil when
	// cfg.Obs is nil or lacks the corresponding half).
	tracer  *obs.Tracer
	metrics *obs.Metrics

	// observerInstalled records whether the commit observer is wired into
	// the L1s (done at construction when the oracle or tracer needs it, or
	// lazily by SetCommitTrace).
	observerInstalled bool

	// commitTrace, when set (tests), receives every architectural commit.
	commitTrace func(cycle uint64, core int, kind string, a memsys.Addr, v []byte)

	// cycleHook, when set (tests), runs at the start of every cycle.
	cycleHook func(cycle uint64)

	// boundaryHook, when set (tests), runs at every window boundary of a
	// sampled or checkpointed run: the machine is architecturally quiescent
	// when it fires, so invariant oracles may scan freely.
	boundaryHook func(cycle uint64)

	// stopReason, when non-empty, aborts the run loop (RequestStop).
	stopReason string

	// par, when non-nil, holds the conservative parallel engine's shard
	// structure (EngineParallel; see parallel.go). Otherwise seq holds the
	// whole machine as the one shard the skip engine steps.
	par *parRunner
	seq *shard

	// unsupported is the compatibility table's rejection of cfg (compat.go),
	// returned by Run.
	unsupported error
}

// SetCommitTrace installs a commit hook (testing/debugging). The hook is fed
// by the same commit observer that drives KindCommit trace events; if the
// observer was not needed at construction it is installed now.
func (s *System) SetCommitTrace(fn func(cycle uint64, core int, kind string, a memsys.Addr, v []byte)) {
	s.commitTrace = fn
	s.ensureObserver()
}

// ensureObserver wires the commit observer into every L1 if absent.
func (s *System) ensureObserver() {
	if s.observerInstalled {
		return
	}
	s.observerInstalled = true
	ob := observer{s.oracle, s}
	for _, l1 := range s.l1s {
		l1.SetObserver(ob)
	}
}

// SetCycleHook installs a function invoked at the start of every cycle
// (testing: fault injection, external-socket accesses, live inspection).
func (s *System) SetCycleHook(fn func(cycle uint64)) { s.cycleHook = fn }

// observer adapts the oracle and the commit trace to the coherence.Observer
// interface. The oracle may be nil (trace-only observer).
type observer struct {
	o *memsys.Oracle
	s *System
}

func (ob observer) OnLoadCommit(c int, a memsys.Addr, v []byte, issue uint64) {
	if ob.o != nil {
		// A miss-path load binds its value at the directory, anywhere in
		// [issue, commit]; the oracle accepts any value live in that window.
		ob.o.CheckLoadWindow(a, v, issue, ob.s.cycle,
			fmt.Sprintf("cycle %d core %d load", ob.s.cycle, c))
	}
	ob.s.commit(c, "load", a, v)
}
func (ob observer) OnStoreCommit(c int, a memsys.Addr, v []byte) {
	if ob.o != nil {
		ob.o.CommitStore(a, v, ob.s.cycle)
	}
	ob.s.commit(c, "store", a, v)
}
func (ob observer) OnReduceCommit(c int, a memsys.Addr, delta []byte) {
	if ob.o != nil {
		ob.o.CommitReduce(a, delta, ob.s.cycle)
	}
	ob.s.commit(c, "reduce", a, delta)
}

// commit routes one architectural commit to the tracer and the test hook.
// kind is one of the static strings "load"/"store"/"reduce", so building the
// event never allocates.
func (s *System) commit(c int, kind string, a memsys.Addr, v []byte) {
	if t := s.tracer; t != nil {
		var val uint64
		for i := 0; i < len(v) && i < 8; i++ {
			val |= uint64(v[i]) << (8 * i)
		}
		t.Emit(obs.Event{
			Cycle: s.cycle, Kind: obs.KindCommit, Core: int16(c), Slice: -1,
			Addr: a, Name: kind, Arg: val, Arg2: uint64(len(v)),
		})
	}
	if s.commitTrace != nil {
		s.commitTrace(s.cycle, c, kind, a, v)
	}
}

// New assembles a system for the workload.
func New(cfg Config, wl Workload) *System {
	p := cfg.Params
	st := stats.NewSet()
	s := &System{
		cfg:     cfg,
		stats:   st,
		net:     network.New(p.Nodes(), p.NetLatency, p.BlockSize, st),
		mem:     memsys.NewMemory(p.BlockSize),
		tracer:  cfg.Obs.GetTracer(),
		metrics: cfg.Obs.GetMetrics(),
	}
	p.ApplyTopology(s.net)
	s.net.SetTracer(s.tracer, p.Cores)
	if cfg.Faults != nil {
		s.net.SetFaults(cfg.Faults)
	}

	if cfg.CheckOracle {
		s.oracle = memsys.NewOracle(p.BlockSize)
	}

	// The compatibility table picks the engine; an unsupported combination
	// builds sequentially and Run returns the error. The parallel engine
	// gives every shard its own deferred-mode network front, stats set,
	// clock and memory partition.
	s.cfg.Engine, _, s.unsupported = Check(cfg)
	if s.unsupported == nil && s.cfg.Engine == EngineParallel {
		s.par = newParRunner(s, parallelShards(cfg))
	}
	// netFor/statsFor/nowFor/memFor route each component's wiring to its
	// owning shard (identity wiring under the sequential engines).
	netFor := func(shard int) *network.Network { return s.net }
	statsFor := func(shard int) *stats.Set { return st }
	nowFor := func(shard int) func() uint64 {
		return func() uint64 { return s.cycle }
	}
	memFor := func(shard int) *memsys.Memory { return s.mem }
	shardOfCore := func(i int) int { return 0 }
	shardOfSlice := func(j int) int { return 0 }
	if s.par != nil {
		netFor = func(shard int) *network.Network { return s.par.shards[shard].net }
		statsFor = func(shard int) *stats.Set { return s.par.shards[shard].stats }
		nowFor = func(shard int) func() uint64 {
			sh := s.par.shards[shard]
			return func() uint64 { return sh.clock }
		}
		memFor = func(shard int) *memsys.Memory { return s.par.shards[shard].mem }
		shardOfCore = func(i int) int { return i * len(s.par.shards) / p.Cores }
		shardOfSlice = func(j int) int { return j * len(s.par.shards) / p.Slices }
	}

	cfg.Forensics.Begin(p.BlockSize, p.Cores)

	cc := cfg.Core
	cc.Cores = p.Cores
	cc.BlockSize = p.BlockSize
	cc.Mode = cfg.Mode
	cc.Now = nowFor(0)
	cc.Trace = s.tracer
	cc.Forensics = cfg.Forensics

	for i := 0; i < p.Cores; i++ {
		k := shardOfCore(i)
		var pol coherence.L1Policy
		if cfg.Mode != coherence.Baseline {
			ccl := cc
			ccl.Now = nowFor(k)
			pam := core.NewPAM(ccl, i, statsFor(k))
			s.pams = append(s.pams, pam)
			pol = pam
		}
		l1 := coherence.NewL1(i, p, cfg.Mode, netFor(k), pol, statsFor(k), nil)
		if cfg.MSHRs > 1 {
			l1.SetMaxMSHRs(cfg.MSHRs)
		}
		l1.SetObs(cfg.Obs)
		l1.SetForensics(cfg.Forensics)
		s.l1s = append(s.l1s, l1)
	}
	if cfg.CheckOracle || s.tracer != nil {
		s.ensureObserver()
	}
	for i := 0; i < p.Slices; i++ {
		k := shardOfSlice(i)
		var pol coherence.DirPolicy
		if cfg.Mode != coherence.Baseline {
			ccd := cc
			ccd.Now = nowFor(k)
			ds := core.NewDirSide(ccd, i, statsFor(k))
			for _, r := range wl.ReductionRegions {
				ds.RegisterReduction(r)
			}
			s.dirPolicies = append(s.dirPolicies, ds)
			pol = ds
		}
		dir := coherence.NewDir(i, p, cfg.Mode, netFor(k), memFor(k), pol, statsFor(k))
		dir.SetObs(cfg.Obs)
		dir.SetForensics(cfg.Forensics)
		s.dirs = append(s.dirs, dir)
	}
	for i := 0; i < p.Cores; i++ {
		k := shardOfCore(i)
		var fn cpu.ThreadFunc
		if i < len(wl.Threads) {
			fn = wl.Threads[i]
		}
		if fn == nil {
			fn = func(*cpu.Ctx) {}
		}
		if cfg.OOO {
			s.cores = append(s.cores, cpu.NewOOO(i, s.l1s[i], fn, cfg.OOOWidth, cfg.ROBSize, statsFor(k)))
		} else {
			s.cores = append(s.cores, cpu.NewInOrder(i, s.l1s[i], fn, statsFor(k)))
		}
	}
	if s.par != nil {
		bindShards(s, s.par.shards)
	} else {
		s.seq = &shard{net: s.net}
		bindShards(s, []*shard{s.seq})
	}
	// Checkpointing needs the result log armed from the very first committed
	// operation so threads can be replayed at any later snapshot (and so a
	// restored thread's re-seeded log keeps growing). Arming is free on the
	// shapes that can't checkpoint anyway (gated again at run time).
	if cfg.CheckpointEvery > 0 && !cfg.OOO && s.par == nil {
		for _, c := range s.cores {
			if io, ok := c.(*cpu.InOrder); ok {
				io.SetRecorder(&cpu.OpRecorder{})
			}
		}
	}
	return s
}

// Stop terminates every core's thread coroutine. Run does this itself on
// every exit path; Stop is for callers that abandon an assembled system
// without running it (e.g. a failed checkpoint restore falling back to a
// freshly built cold system).
func (s *System) Stop() {
	for _, c := range s.cores {
		c.Stop()
	}
}

// Dir returns directory slice i (testing and multi-socket hooks).
func (s *System) Dir(i int) *coherence.Dir { return s.dirs[i] }

// L1 returns core i's L1 controller (testing).
func (s *System) L1(i int) *coherence.L1 { return s.l1s[i] }

// Net returns the interconnect (testing and fault-injection hooks).
func (s *System) Net() *network.Network { return s.net }

// CoreFinished reports whether core i's thread has run to completion
// (watchdog progress checks).
func (s *System) CoreFinished(i int) bool { return s.cores[i].Finished() }

// RequestStop asks the run loop to abort at the end of the current cycle
// with ErrStopped wrapping the given reason. Intended to be called from a
// cycle hook or commit trace (e.g. the fuzzing watchdog); safe to call more
// than once — the first reason wins.
func (s *System) RequestStop(reason string) {
	if s.stopReason == "" {
		s.stopReason = reason
	}
}

// ErrStopped is returned when a hook aborted the run via RequestStop.
var ErrStopped = errors.New("sim: stopped by hook")

// ErrDeadlock is returned when the simulation exceeds MaxCycles.
var ErrDeadlock = errors.New("sim: cycle limit exceeded (deadlock?)")

// DumpState summarizes every component's in-flight work (deadlock triage):
// queued network messages with their delivery cycles, every non-idle L1 and
// directory slice's FSM state, and unfinished cores.
func (s *System) DumpState() string {
	out := fmt.Sprintf("cycle=%d net.pending=%d\n", s.cycle, s.net.Pending())
	const maxMsgs = 48
	shown := 0
	s.net.ForEachInFlight(func(m *network.Msg, readyAt uint64) {
		shown++
		if shown > maxMsgs {
			return
		}
		out += fmt.Sprintf("  in-flight: %v readyAt=%d\n", m, readyAt)
	})
	if shown > maxMsgs {
		out += fmt.Sprintf("  ... %d more in-flight messages\n", shown-maxMsgs)
	}
	for _, l := range s.l1s {
		if d := l.DebugString(); d != "" {
			out += d + "\n"
		}
	}
	for _, d := range s.dirs {
		if ds := d.DebugString(); ds != "" {
			out += ds + "\n"
		}
	}
	for i, c := range s.cores {
		if !c.Finished() {
			out += fmt.Sprintf("core %d not finished\n", i)
		}
	}
	return out
}

// Run executes the simulation to completion.
func (s *System) Run(name string) (*Result, error) {
	// Terminate thread coroutines parked mid-operation if the run ends early
	// (deadlock, cycle guard); finished threads make this a no-op.
	defer func() {
		for _, c := range s.cores {
			c.Stop()
		}
	}()
	if err := s.supported(); err != nil {
		return nil, err
	}
	maxCycles := s.cfg.MaxCycles
	if maxCycles == 0 {
		maxCycles = 500_000_000
	}
	if s.cfg.Sample.Enabled() || s.cfg.CheckpointEvery > 0 {
		return s.runSampled(name, maxCycles)
	}
	if _, err := s.advance(name, maxCycles, false, 0); err != nil {
		return nil, err
	}
	return s.buildResult(name), nil
}

// advance runs timed cycles; every run mode calls it, and no other code
// moves the clock in timed execution. The parallel engine hands the whole
// run to its epoch coordinator. The sequential engines step one cycle at a
// time: the skip engine through its shard, fast-forwarding to the next
// wake-up after each step, and the naive engine with stepCycle's full tick.
// A cycle hook or a zero network latency also needs the full tick: a hook
// may create work outside any tick (Dir.ExternalAccess), and a zero-latency
// send is consumed within its own cycle, after the shard read its arrivals.
//
// The loop returns when done (or, draining, drained) holds after a step,
// with no skip after it; finished reports done. With budget > 0 it also
// returns once budget L1D accesses have committed since entry, checked after
// the step's skip. A drain that finds the machine drained steps no cycle.
func (s *System) advance(name string, maxCycles uint64, draining bool, budget uint64) (finished bool, err error) {
	if s.par != nil {
		cycle, err := s.par.run(name, maxCycles)
		if err != nil {
			return false, err
		}
		s.cycle = cycle
		s.par.mergeStats()
		return true, nil
	}
	if draining && s.drained() {
		return false, nil
	}
	full := s.cfg.Engine == EngineNaive || s.cycleHook != nil || s.net.MinDeliveryLatency() == 0
	// Work created outside a tick — issue held or released, warming, a
	// restored checkpoint — is missing from the wake-up caches.
	s.seq.wakeAll()
	start := s.stats.GetID(stats.IDL1DAccesses)
	for {
		s.cycle++
		if s.cycle > maxCycles {
			if draining {
				name += ", draining"
			}
			return false, fmt.Errorf("%w at cycle %d (%s)", ErrDeadlock, s.cycle, name)
		}
		if full {
			s.stepCycle()
		} else {
			s.seq.step(s.cycle)
		}
		if s.cfg.CheckSWMR && s.cycle%s.cfg.SWMRPeriod == 0 {
			s.checkSWMR()
		}
		if m := s.metrics; m != nil && s.cycle%m.Interval == 0 {
			m.Sample(s.cycle, s.stats.Snapshot())
		}
		s.pollCancel()
		if s.stopReason != "" {
			return false, fmt.Errorf("%w: %s at cycle %d (%s)", ErrStopped, s.stopReason, s.cycle, name)
		}
		if draining && s.drained() || !draining && s.done() {
			return !draining, nil
		}
		if !full {
			if t := s.lastIdle(maxCycles); t > s.cycle {
				s.seq.skipIdle(t - s.cycle)
				s.cycle = t
			}
		}
		if budget > 0 && s.stats.GetID(stats.IDL1DAccesses)-start >= budget {
			return false, nil
		}
	}
}

// pollCancel folds the external cancellation flag (Config.Cancel, set by the
// runner's watchdog) into the stop-reason mechanism. Polled once per loop
// iteration in every engine, so a timed-out cell stops within one quantum.
func (s *System) pollCancel() {
	if s.stopReason == "" && s.cfg.Cancel != nil && s.cfg.Cancel() {
		s.stopReason = "canceled"
	}
}

// buildResult closes out observability and assembles the Result from the
// system's final state (shared by the timed and sampled run loops).
func (s *System) buildResult(name string) *Result {
	s.stats.SetID(stats.IDCycles, s.cycle)
	// Close out observability: privatized episodes still open at the end of
	// the run emit their terminate event, then a final metrics sample
	// captures the run's closing counter values.
	for _, d := range s.dirs {
		d.FinalizeObs(s.cycle)
	}
	if m := s.metrics; m != nil {
		m.Sample(s.cycle, s.stats.Snapshot())
	}
	res := &Result{
		Name:   name,
		Mode:   s.cfg.Mode,
		Cycles: s.cycle,
		Stats:  s.stats,
	}
	for _, dp := range s.dirPolicies {
		res.Detections = append(res.Detections, dp.Detections()...)
		res.Contended = append(res.Contended, dp.ContendedLines()...)
	}
	if s.oracle != nil {
		res.OracleViolations = s.oracle.Violations()
	}
	res.SWMRViolations = s.swmrBad
	return res
}

// stepCycle runs one full simulation cycle: the per-cycle hook, then every
// component's Tick in rank order. It is the naive engine's step, the
// reference the skip engine's elided step is proven against.
func (s *System) stepCycle() {
	s.net.SetCycle(s.cycle)
	if s.cycleHook != nil {
		s.cycleHook(s.cycle)
	}
	for _, d := range s.dirs {
		d.Tick(s.cycle)
	}
	for _, l := range s.l1s {
		l.Tick(s.cycle)
	}
	for _, c := range s.cores {
		c.Tick(s.cycle)
	}
}

// lastIdle returns the last cycle before the shard's next wake-up, the
// target the skip engine fast-forwards to after a step (s.cycle itself when
// the next cycle has work). It is clamped so that SWMR-check and
// metrics-sampling boundary cycles are still stepped (their output embeds
// cycle numbers, and byte-identical output across engines is the contract)
// and so the MaxCycles deadlock error fires at the same cycle as under the
// naive loop.
func (s *System) lastIdle(maxCycles uint64) uint64 {
	now := s.cycle
	wake := s.seq.nextLocal()
	if wake <= now+1 {
		return now
	}
	// done() just returned false, so an all-NoEvent round means deadlock:
	// aim at maxCycles and let the loop trip the identical ErrDeadlock.
	target := maxCycles
	if wake != coherence.NoEvent && wake-1 < target {
		target = wake - 1
	}
	if s.cfg.CheckSWMR {
		target = min(target, now-now%s.cfg.SWMRPeriod+s.cfg.SWMRPeriod-1)
	}
	if m := s.metrics; m != nil {
		target = min(target, now-now%m.Interval+m.Interval-1)
	}
	return max(target, now)
}

// done reports whether every thread finished and the system quiesced.
func (s *System) done() bool {
	return s.seq.finished() && s.net.Pending() == 0 && s.seq.idle()
}

// checkSWMR validates the single-writer/multiple-reader invariant across all
// L1s: at most one E/M copy of any block, never alongside S copies; PRV
// copies may coexist only with S copies mid-privatization, never with E/M.
func (s *System) checkSWMR() {
	if len(s.swmrBad) >= 16 {
		return
	}
	type count struct{ em, sh, prv int }
	m := make(map[memsys.Addr]*count)
	for _, l1 := range s.l1s {
		l1.ForEachLine(func(a memsys.Addr, st coherence.L1State) {
			c := m[a]
			if c == nil {
				c = &count{}
				m[a] = c
			}
			switch st {
			case coherence.L1Exclusive, coherence.L1Modified:
				c.em++
			case coherence.L1Shared:
				c.sh++
			case coherence.L1Prv:
				c.prv++
			}
		})
	}
	for a, c := range m {
		if c.em > 1 || (c.em > 0 && (c.sh > 0 || c.prv > 0)) {
			s.swmrBad = append(s.swmrBad,
				fmt.Sprintf("cycle %d block %v: EM=%d S=%d PRV=%d", s.cycle, a, c.em, c.sh, c.prv))
			if t := s.tracer; t != nil {
				t.Emit(obs.Event{Cycle: s.cycle, Kind: obs.KindOracle, Core: -1, Slice: -1, Addr: a, Name: "swmr"})
			}
		}
	}
}
