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
	"fscoherence/internal/memsys"
	"fscoherence/internal/network"
	"fscoherence/internal/obs"
	"fscoherence/internal/sample"
	"fscoherence/internal/stats"
)

// Engine selects the simulation loop strategy. Both engines are cycle-exact:
// they produce byte-identical results (cycle counts, counter snapshots,
// traces, detections) for the same configuration and workload.
type Engine int

const (
	// EngineSkip, the default, steps the whole machine with stepDue
	// (skip.go). A wake-up queue keyed by cycle holds each directory slice
	// and each L1/core pair at the earliest of its cached NextEvent and its
	// inbox's front; a stepped cycle ticks only the components the queue
	// holds due, and the loop then fast-forwards to the cycle before the
	// queue's minimum. Cores credit the stall accounting of elided and
	// skipped ticks lazily via SkipIdle — a pair for the cycles since it
	// last ticked, just before it ticks again, and every core before a
	// metrics sample and when advance returns — so neither is visible. An
	// in-order core that ticks may commit its next L1 hits inside its
	// thread, ahead of the clock, up to the earliest cycle a message could
	// reach its L1 (Horizon). A run with a zero network latency steps with
	// the naive full tick instead (see advance).
	EngineSkip Engine = iota

	// EngineNaive ticks every component on every cycle (stepCycle) — the
	// reference the skip engine is proven against (see
	// TestEngineEquivalence).
	EngineNaive

	// EngineParallel names the removed conservative parallel engine. Check
	// resolves it to EngineSkip with a warning.
	//
	// Deprecated: use EngineSkip, which it runs.
	EngineParallel
)

// Config describes one simulation run.
type Config struct {
	Params coherence.Params
	Mode   coherence.Protocol

	// Engine selects the simulation loop (default EngineSkip).
	Engine Engine

	// Shards was the removed parallel engine's worker count.
	//
	// Deprecated: ignored.
	Shards int

	// Core holds the FSDetect/FSLite tunables; ignored in Baseline mode.
	// Cores/BlockSize/Mode are filled in from Params automatically.
	Core core.Config

	// OOO selects the out-of-order core model (cpu.OOOWidth wide, a
	// cpu.ROBSize-entry ROB) and gives each L1 cpu.OOOMSHRs miss slots; the
	// in-order core has one.
	OOO bool

	// Verify checks every load against a byte-granular golden memory and,
	// every SWMRPeriod cycles, scans coherence states for SWMR and checks
	// liveness: a run in which an unfinished core committed nothing for
	// stallCycles cycles stops with a *StallError.
	Verify     bool
	SWMRPeriod uint64

	// MaxCycles aborts the run as deadlocked when exceeded (0 = 500M).
	MaxCycles uint64

	// Faults, when non-nil, installs a deterministic network fault-injection
	// plan (seeded delivery jitter and burst delays; see network.FaultPlan
	// and internal/fuzz). Injection stays within the protocol-legal delivery
	// contract, so all oracles must still hold.
	Faults *network.FaultPlan

	// Obs attaches the unified observability layer (event tracing and
	// interval metrics). Nil disables it entirely at zero per-event cost.
	// A flight recorder reads the run through a tap on its tracer.
	Obs *obs.Obs

	// Sample enables SMARTS-style interval sampling: detailed windows of
	// Sample.Detailed committed accesses (full timing under the skip engine)
	// alternate with functional-warming windows of Sample.Warming accesses (no
	// timing; see coherence.Warmer). Timing-domain counters are estimated from
	// the detailed windows with confidence intervals (Result.Sampled); all
	// other counters accrue exactly. Warming commits reach the commit
	// observer, so Verify's oracle checks them too. Requires the in-order
	// two-level inclusive machine with no Obs attachment (compat.go holds the
	// full table).
	Sample sample.Spec

	// Cancel, when non-nil, is polled roughly once per loop iteration in
	// every engine; when it returns true the run aborts with ErrStopped.
	// It may be flipped from another goroutine (the runner's watchdog) as
	// long as the func itself is race-free (e.g. an atomic load).
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
	swmrBad     []string
	// swmrCounts is checkSWMR's per-block tally, cleared and refilled at
	// every check so a Verify run does not build a map per period.
	swmrCounts map[memsys.Addr]swmrCount

	// tracer / metrics are the unified observability attachments (nil when
	// cfg.Obs is nil or lacks the corresponding half).
	tracer  *obs.Tracer
	metrics *obs.Metrics

	// lastCommit holds, per core, the cycle of its latest commit, kept by
	// the commit observer (installed under Verify or a tracer) for the
	// liveness check.
	lastCommit []uint64

	// boundaryHook, when set (tests), runs at every window boundary of a
	// sampled run: the machine is architecturally quiescent when it fires,
	// so invariant oracles may scan freely.
	boundaryHook func(cycle uint64)

	// stopReason, when non-empty, aborts the run loop (Config.Cancel).
	stopReason string

	// wake is the skip engine's wake-up queue (skip.go). stallAt holds, per
	// core, the cycle through which its stall accounting is credited.
	// coreDone marks the cores whose threads have run to completion, and
	// unfinished counts the rest (finished).
	wake       queue
	stallAt    []uint64
	coreDone   []bool
	unfinished int

	// horizon is Horizon's per-cycle part, computed for cycle horizonAt;
	// horizonHook, when set (tests), sees every bound Horizon returns.
	horizonAt   uint64
	horizon     uint64
	horizonHook func(core int, cycle, bound uint64)

	// unsupported is the compatibility table's rejection of cfg (compat.go),
	// returned by Run.
	unsupported error
}

// observer adapts the oracle, the tracer and the liveness check to the
// coherence.Observer interface. The oracle may be nil (trace-only
// observer). Each commit is stamped with the cycle the L1 reports, not
// s.cycle: a run-ahead core commits its hits ahead of the engine's clock.
type observer struct {
	o *memsys.Oracle
	s *System
}

func (ob observer) OnLoadCommit(c int, a memsys.Addr, v []byte, issue, at uint64) {
	// A miss-path load binds its value at the directory, anywhere in
	// [issue, commit]; the oracle accepts any value live in that window. The
	// violation's context is formatted only when there is one.
	if o := ob.o; o != nil && !o.LoadLive(a, v, issue, at) {
		o.CheckLoadWindow(a, v, issue, at, fmt.Sprintf("cycle %d core %d load", at, c))
	}
	ob.s.commit(at, c, "load", a, v)
}
func (ob observer) OnStoreCommit(c int, a memsys.Addr, v []byte, at uint64) {
	if ob.o != nil {
		ob.o.CommitStore(a, v, at)
	}
	ob.s.commit(at, c, "store", a, v)
}
func (ob observer) OnReduceCommit(c int, a memsys.Addr, delta []byte, at uint64) {
	if ob.o != nil {
		ob.o.CommitReduce(a, delta, at)
	}
	ob.s.commit(at, c, "reduce", a, delta)
}
func (ob observer) OnRMWCommit(c int, a memsys.Addr, old, next []byte, at uint64) {
	if o := ob.o; o != nil {
		// The read serializes with the write at commit: the line is held
		// exclusively, so strict commit-time checking is exact.
		if !o.LoadLive(a, old, at, at) {
			o.CheckLoadWindow(a, old, at, at, fmt.Sprintf("cycle %d core %d rmw", at, c))
		}
		o.CommitStore(a, next, at)
	}
	ob.s.commit(at, c, "rmw", a, next)
}

// commit routes one architectural commit, made at cycle at, to the tracer
// and records it as core c's latest. kind is one of the static strings
// "load"/"store"/"reduce"/"rmw", so building the event never allocates.
func (s *System) commit(at uint64, c int, kind string, a memsys.Addr, v []byte) {
	s.lastCommit[c] = at
	if t := s.tracer; t != nil {
		var val uint64
		for i := 0; i < len(v) && i < 8; i++ {
			val |= uint64(v[i]) << (8 * i)
		}
		t.Emit(obs.Event{
			Cycle: at, Kind: obs.KindCommit, Core: int16(c), Slice: -1,
			Addr: a, Name: kind, Arg: val, Arg2: uint64(len(v)),
		})
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

	if cfg.Verify {
		s.oracle = memsys.NewOracle(p.BlockSize)
	}

	// The compatibility table picks the engine; an unsupported combination
	// builds anyway and Run returns the error.
	s.cfg.Engine, _, s.unsupported = Check(cfg)

	cc := cfg.Core
	cc.Cores = p.Cores
	cc.BlockSize = p.BlockSize
	cc.Mode = cfg.Mode
	cc.Now = func() uint64 { return s.cycle }
	cc.Trace = s.tracer

	var ob coherence.Observer
	if cfg.Verify || s.tracer != nil {
		ob = observer{s.oracle, s}
		s.lastCommit = make([]uint64, p.Cores)
	}
	for i := 0; i < p.Cores; i++ {
		var pol coherence.L1Policy
		if cfg.Mode != coherence.Baseline {
			pol = core.NewPAM(cc, i, st)
		}
		l1 := coherence.NewL1(i, p, cfg.Mode, s.net, pol, st, ob)
		if cfg.OOO {
			l1.SetMaxMSHRs(cpu.OOOMSHRs)
		}
		l1.SetObs(cfg.Obs)
		s.l1s = append(s.l1s, l1)
	}
	for i := 0; i < p.Slices; i++ {
		var pol coherence.DirPolicy
		if cfg.Mode != coherence.Baseline {
			ds := core.NewDirSide(cc, i, st)
			for _, r := range wl.ReductionRegions {
				ds.RegisterReduction(r)
			}
			s.dirPolicies = append(s.dirPolicies, ds)
			pol = ds
		}
		dir := coherence.NewDir(i, p, cfg.Mode, s.net, s.mem, pol, st)
		dir.SetObs(cfg.Obs)
		s.dirs = append(s.dirs, dir)
	}
	for i := 0; i < p.Cores; i++ {
		var fn cpu.ThreadFunc
		if i < len(wl.Threads) {
			fn = wl.Threads[i]
		}
		if fn == nil {
			fn = func(*cpu.Ctx) {}
		}
		if cfg.OOO {
			s.cores = append(s.cores, cpu.NewOOO(i, s.l1s[i], fn, cpu.OOOWidth, cpu.ROBSize, st))
		} else {
			s.cores = append(s.cores, cpu.NewInOrder(i, s.l1s[i], fn, st))
		}
	}
	s.wake = newQueue(p)
	s.net.SetWaker(&s.wake)
	s.stallAt = make([]uint64, p.Cores)
	s.coreDone = make([]bool, p.Cores)
	return s
}

// Stop terminates every core's thread coroutine. Run does this itself on
// every exit path; Stop is for callers that abandon an assembled system
// without running it.
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

// ErrStopped is returned when Config.Cancel aborted the run.
var ErrStopped = errors.New("sim: stopped")

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
	if s.unsupported != nil {
		return nil, s.unsupported
	}
	maxCycles := s.cfg.MaxCycles
	if maxCycles == 0 {
		maxCycles = 500_000_000
	}
	if s.cfg.Sample.Enabled() {
		return s.runSampled(name, maxCycles)
	}
	if _, err := s.advance(name, maxCycles, false, 0); err != nil {
		return nil, err
	}
	return s.buildResult(name), nil
}

// advance runs timed cycles; every run mode calls it, and no other code
// moves the clock in timed execution. Both engines step one cycle at a
// time: the skip engine with stepDue, fast-forwarding to the next wake-up
// after each step, and the naive engine with stepCycle's full tick.
// A zero network latency also needs the full tick: a zero-latency send is
// consumed within its own cycle, after stepDue read its arrivals. Work
// created between calls (Dir.ExternalAccess, held or released issue) is
// picked up by wakeAll on entry.
// The skip engine's cores are credited the stall cycles of the ticks it
// elided or skipped before every metrics sample and on every return, so no
// caller sees the lazy accounting.
//
// The loop returns when done (or, draining, drained) holds after a step,
// with no skip after it; finished reports done. With budget > 0 it also
// returns once budget L1D accesses have committed since entry, checked after
// the step's skip. A drain that finds the machine drained steps no cycle.
func (s *System) advance(name string, maxCycles uint64, draining bool, budget uint64) (finished bool, err error) {
	if draining && s.drained() {
		return false, nil
	}
	full := s.cfg.Engine == EngineNaive || s.net.MinDeliveryLatency() == 0
	// Work created outside a tick — issue held or released, warming — is
	// missing from the wake-up queue.
	s.wakeAll()
	if !full {
		// The stall cycles of the cores that did not tick in the last
		// stepped cycles; past MaxCycles, no cycle is owed.
		defer func() { s.creditStalls(min(s.cycle, maxCycles)) }()
	}
	// Run-ahead commits a core's hits ahead of the clock. It stays off where
	// that shows: a budget counts commits after every step, a drain holds
	// issue, and the tracer and the metrics see commits in engine order. The
	// oracle and the liveness check take each commit's own cycle, so Verify
	// keeps it on.
	if !full && budget == 0 && !draining && s.tracer == nil && s.metrics == nil {
		s.setLookahead(s)
		defer s.setLookahead(nil)
	}
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
			s.stepDue(s.cycle)
		}
		if s.cfg.Verify && s.cycle%s.cfg.SWMRPeriod == 0 {
			s.checkSWMR()
			if err := s.checkStall(); err != nil {
				return false, err
			}
		}
		if m := s.metrics; m != nil && s.cycle%m.Interval == 0 {
			if !full {
				s.creditStalls(s.cycle)
			}
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
			s.cycle = s.lastIdle(maxCycles)
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

// stepCycle runs one full simulation cycle: every component's Tick in rank
// order. It is the naive engine's step, the reference the skip engine's
// elided step is proven against.
func (s *System) stepCycle() {
	s.net.SetCycle(s.cycle)
	for _, d := range s.dirs {
		d.Tick(s.cycle)
	}
	for _, l := range s.l1s {
		l.Tick(s.cycle)
	}
	for i, c := range s.cores {
		c.Tick(s.cycle)
		s.noteFinished(i)
	}
}

// lastIdle returns the last cycle before the machine's next wake-up, the
// target the skip engine fast-forwards to after a step (s.cycle itself when
// the next cycle has work). It is clamped so that Verify's check cycles
// (SWMR and liveness) and metrics-sampling boundary cycles are still
// stepped (their output embeds cycle numbers, and byte-identical output
// across engines is the contract) and so the MaxCycles deadlock error fires
// at the same cycle as under the naive loop.
func (s *System) lastIdle(maxCycles uint64) uint64 {
	now := s.cycle
	wake := s.wake.next()
	if wake <= now+1 {
		return now
	}
	// done() just returned false, so an all-NoEvent round means deadlock:
	// aim at maxCycles and let the loop trip the identical ErrDeadlock.
	target := maxCycles
	if wake != coherence.NoEvent && wake-1 < target {
		target = wake - 1
	}
	if s.cfg.Verify {
		target = min(target, now-now%s.cfg.SWMRPeriod+s.cfg.SWMRPeriod-1)
	}
	if m := s.metrics; m != nil {
		target = min(target, now-now%m.Interval+m.Interval-1)
	}
	return max(target, now)
}

// done reports whether every thread finished and the system quiesced.
func (s *System) done() bool {
	return s.finished() && s.net.Pending() == 0 && s.idle()
}

// swmrCount is one block's L1 copies by state class, as checkSWMR counts
// them.
type swmrCount struct{ em, sh, prv int }

// checkSWMR validates the single-writer/multiple-reader invariant across all
// L1s: at most one E/M copy of any block, never alongside S copies; PRV
// copies may coexist only with S copies mid-privatization, never with E/M.
func (s *System) checkSWMR() {
	if len(s.swmrBad) >= 16 {
		return
	}
	if s.swmrCounts == nil {
		s.swmrCounts = make(map[memsys.Addr]swmrCount)
	}
	m := s.swmrCounts
	clear(m)
	for _, l1 := range s.l1s {
		l1.ForEachLine(func(a memsys.Addr, st coherence.L1State) {
			c := m[a]
			switch st {
			case coherence.L1Exclusive, coherence.L1Modified:
				c.em++
			case coherence.L1Shared:
				c.sh++
			case coherence.L1Prv:
				c.prv++
			}
			m[a] = c
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

// stallCycles is the liveness check's threshold: a Verify run stops with a
// *StallError once an unfinished core has committed nothing for longer.
// Spinning on a lock or a barrier commits loads, so only a wedged core's
// commits stop.
const stallCycles = 200_000

// StallError is returned by a Verify run whose liveness check tripped: at
// check cycle Cycle, an unfinished core had committed nothing for more than
// stallCycles cycles. It catches deadlock and livelock alike, including a
// wedge that loses no value.
type StallError struct {
	Cycle  uint64
	Reason string // one line: "core N committed nothing for … cycles (last commit at …)"
	Ages   string // the per-core commit-age table
	State  string // DumpState at the trip
}

func (e *StallError) Error() string {
	return fmt.Sprintf("sim: stall at cycle %d: %s", e.Cycle, e.Reason)
}

// commitAge is core i's cycles since its latest commit. A run-ahead core
// stamps its commits ahead of the clock, so a commit at or after the current
// cycle has age 0.
func (s *System) commitAge(i int) uint64 {
	if last := s.lastCommit[i]; last < s.cycle {
		return s.cycle - last
	}
	return 0
}

// checkStall is the liveness check Verify runs every SWMRPeriod cycles: it
// returns a *StallError for the first unfinished core whose commit age
// exceeds stallCycles. Both engines step every such cycle (lastIdle), so
// they trip on the same one.
func (s *System) checkStall() error {
	for i := range s.cores {
		if s.coreDone[i] || s.commitAge(i) <= stallCycles {
			continue
		}
		ages := fmt.Sprintf("watchdog trip at cycle %d (stall threshold %d)\n", s.cycle, stallCycles)
		for j := range s.cores {
			state := "running"
			if s.coreDone[j] {
				state = "finished"
			}
			ages += fmt.Sprintf("  core %d: %s, last commit at cycle %d (age %d)\n",
				j, state, s.lastCommit[j], s.commitAge(j))
		}
		return &StallError{
			Cycle:  s.cycle,
			Reason: fmt.Sprintf("core %d committed nothing for %d cycles (last commit at %d)", i, s.commitAge(i), s.lastCommit[i]),
			Ages:   ages,
			State:  s.DumpState(),
		}
	}
	return nil
}
