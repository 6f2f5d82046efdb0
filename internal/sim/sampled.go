package sim

import (
	"fmt"
	"math"

	"fscoherence/internal/coherence"
	"fscoherence/internal/cpu"
	"fscoherence/internal/memsys"
	"fscoherence/internal/sample"
	"fscoherence/internal/stats"
)

// sampledTimingIDs are the timing-domain counters that only accrue while the
// detailed engine runs; the sampled loop estimates their whole-run values by
// ratio extrapolation. Cycles are handled separately (the clock is not a
// counter slot during the run). Every other counter accrues functionally in
// warming windows too and stays exact.
// warmQuantum caps the operations one core commits per warming round. Large
// enough to amortize the per-quantum coroutine switch to noise, small enough
// that spin-wait loops (locks, barriers) hand off within a round and windows
// land near their spec.
const warmQuantum = 256

var sampledTimingIDs = []stats.ID{
	stats.IDStallCycles,
	stats.IDNetMessages,
	stats.IDNetBytes,
	stats.IDNetHops,
	stats.IDNetLinkWait,
}

// SampledRun reports the estimation side of an interval-sampled run.
type SampledRun struct {
	Spec     sample.Spec
	Windows  int    // completed detailed windows
	Accesses uint64 // committed L1D accesses over the whole run (exact)
	Detailed uint64 // accesses measured in detailed windows

	// Estimates maps canonical counter names (stats.CtrCycles etc.) to their
	// whole-run estimates. The rounded means are also written back into Stats
	// so downstream reporting needs no special-casing; the map carries the
	// confidence intervals.
	Estimates map[string]stats.Estimate
}

// SetBoundaryHook installs a function invoked at every sampling window
// boundary after the drain (testing: invariant oracles see a quiescent
// machine).
func (s *System) SetBoundaryHook(fn func(cycle uint64)) { s.boundaryHook = fn }

// runSampled is the interval-sampling run loop: detailed windows measured by
// the ordinary skip-engine cycle loop alternate with functional-warming
// windows that commit operations through coherence.Warmer with no timing.
// Every window boundary drains the machine first (issue held, outstanding
// accesses retired), so warming always starts from — and detailed execution
// always resumes into — a quiescent architectural state.
func (s *System) runSampled(name string, maxCycles uint64) (*Result, error) {
	spec := s.cfg.Sample
	st := s.stats
	warmer := coherence.NewWarmer(s.cfg.Params, s.cfg.Mode, s.l1s, s.dirs, s.mem)

	cores := make([]*cpu.InOrder, len(s.cores))
	sinks := make([]*warmSink, len(s.cores))
	for i, c := range s.cores {
		cores[i] = c.(*cpu.InOrder)
		sinks[i] = &warmSink{core: i, st: st, warmer: warmer}
	}

	var cycEst sample.Estimator
	ests := make([]sample.Estimator, len(sampledTimingIDs))
	snap := make([]uint64, len(sampledTimingIDs))

	// A restored sampled run re-seeds its estimators from the checkpoint so
	// the whole-run estimates match the uninterrupted run's exactly.
	if rs := s.resumedSample; rs != nil {
		cycEst.SetState(rs.CycWindows)
		for i := range ests {
			ests[i].SetState(rs.Ests[i])
		}
	}
	// Sampled runs checkpoint at existing post-warming boundaries (the
	// machine is already drained there), so snapshotting perturbs nothing;
	// CheckpointEvery only rate-limits which boundaries get one.
	lastCkpt := st.GetID(stats.IDL1DAccesses)

	for {
		// Detailed window: the ordinary timed loop, until the access budget
		// is spent or the workload finishes.
		winAcc := st.GetID(stats.IDL1DAccesses)
		winCyc := s.cycle
		for i, id := range sampledTimingIDs {
			snap[i] = st.GetID(id)
		}
		finished := false
		for st.GetID(stats.IDL1DAccesses)-winAcc < spec.Detailed {
			s.cycle++
			if s.cycle > maxCycles {
				return nil, fmt.Errorf("%w at cycle %d (%s)", ErrDeadlock, s.cycle, name)
			}
			s.stepCycle()
			s.pollCancel()
			if s.stopReason != "" {
				return nil, fmt.Errorf("%w: %s at cycle %d (%s)", ErrStopped, s.stopReason, s.cycle, name)
			}
			if s.done() {
				finished = true
				break
			}
			s.skipAhead(maxCycles)
		}

		// Drain: hold issue on every core and let in-flight accesses retire.
		// The drain's cycles and traffic charge to the detailed window.
		for _, c := range cores {
			c.HoldIssue(true)
		}
		for !s.drained() {
			s.cycle++
			if s.cycle > maxCycles {
				return nil, fmt.Errorf("%w at cycle %d (%s, draining)", ErrDeadlock, s.cycle, name)
			}
			s.stepCycle()
			s.pollCancel()
			if s.stopReason != "" {
				return nil, fmt.Errorf("%w: %s at cycle %d (%s)", ErrStopped, s.stopReason, s.cycle, name)
			}
			if !s.drained() {
				s.skipAhead(maxCycles)
			}
		}

		// Record the window (a zero-access tail window carries no signal).
		if acc := st.GetID(stats.IDL1DAccesses) - winAcc; acc > 0 {
			cycEst.Observe(s.cycle-winCyc, acc)
			for i, id := range sampledTimingIDs {
				ests[i].Observe(st.GetID(id)-snap[i], acc)
			}
		}
		if s.boundaryHook != nil {
			s.boundaryHook(s.cycle)
		}
		if finished || s.allFinished() {
			for _, c := range cores {
				c.HoldIssue(false)
			}
			break
		}

		// Warming window: commit operations functionally in round-robin
		// quanta — each unfinished core runs up to warmQuantum operations
		// inside its thread coroutine per round (one coroutine round trip per
		// quantum, not per op), with the clock advancing one cycle per round
		// (episode timestamps advance in compressed time). Tail rounds shrink
		// the quantum to the remaining per-core budget so the window lands
		// near its spec. Forced terminations drain each round, standing in
		// for the directory Tick.
		warmer.SetNow(s.cycle)
		warmAcc := st.GetID(stats.IDL1DAccesses)
		for {
			cur := st.GetID(stats.IDL1DAccesses) - warmAcc
			if cur >= spec.Warming {
				break
			}
			q := (spec.Warming - cur) / uint64(len(cores))
			if q == 0 {
				q = 1
			} else if q > warmQuantum {
				q = warmQuantum
			}
			progress := false
			for i, c := range cores {
				if n, _ := c.WarmRun(sinks[i], q); n > 0 {
					progress = true
				}
			}
			s.cycle++
			warmer.SetNow(s.cycle)
			warmer.DrainForcedTerminations()
			s.pollCancel()
			if s.stopReason != "" {
				return nil, fmt.Errorf("%w: %s at cycle %d (%s)", ErrStopped, s.stopReason, s.cycle, name)
			}
			if !progress {
				break
			}
		}
		if s.boundaryHook != nil {
			s.boundaryHook(s.cycle)
		}
		// Post-warming boundary: the machine is drained (warming is purely
		// functional), so this is a free checkpoint point.
		if s.cfg.CheckpointSink != nil && st.GetID(stats.IDL1DAccesses)-lastCkpt >= s.cfg.CheckpointEvery {
			smp := &SampleState{CycWindows: cycEst.State()}
			for i := range ests {
				smp.Ests = append(smp.Ests, ests[i].State())
			}
			if err := s.emitCheckpoint(name, smp); err != nil {
				return nil, err
			}
			lastCkpt = st.GetID(stats.IDL1DAccesses)
		}
		for _, c := range cores {
			c.HoldIssue(false)
		}
		if s.allFinished() {
			break
		}
	}

	res := s.buildResult(name)
	total := st.GetID(stats.IDL1DAccesses)
	sr := &SampledRun{
		Spec:      spec,
		Windows:   cycEst.Windows(),
		Accesses:  total,
		Detailed:  cycEst.DetailedAccesses(),
		Estimates: make(map[string]stats.Estimate, len(sampledTimingIDs)+1),
	}
	cyc := cycEst.Estimate(total)
	sr.Estimates[stats.CtrCycles] = cyc
	st.SetID(stats.IDCycles, uint64(math.Round(cyc.Mean)))
	res.Cycles = st.GetID(stats.IDCycles)
	for i, id := range sampledTimingIDs {
		est := ests[i].Estimate(total)
		sr.Estimates[id.Name()] = est
		st.SetID(id, uint64(math.Round(est.Mean)))
	}
	res.Sampled = sr
	return res, nil
}

// warmSink adapts one core's functional-warming commits to coherence.Warmer.
// The typed methods are the hot path (no Op is ever built); ApplyOp handles
// boundary-held ops and the kinds without a typed shortcut.
type warmSink struct {
	core   int
	st     *stats.Set
	warmer *coherence.Warmer
}

func (w *warmSink) Load(addr memsys.Addr, size int) uint64 {
	w.st.IncID(stats.IDOpsCommitted)
	return w.warmer.Access(w.core, coherence.AccessLoad, addr, size, 0, nil)
}

func (w *warmSink) Store(addr memsys.Addr, size int, v uint64) {
	w.st.IncID(stats.IDOpsCommitted)
	w.warmer.Access(w.core, coherence.AccessStore, addr, size, v, nil)
}

func (w *warmSink) AtomicAdd(addr memsys.Addr, size int, delta uint64) uint64 {
	w.st.IncID(stats.IDOpsCommitted)
	return w.warmer.Access(w.core, coherence.AccessAtomicRMW, addr, size, delta, nil)
}

func (w *warmSink) Compute(n uint64) {
	w.st.IncID(stats.IDOpsCommitted)
	w.st.AddID(stats.IDComputeCycles, n)
}

func (w *warmSink) ApplyOp(op *cpu.Op) uint64 {
	w.st.IncID(stats.IDOpsCommitted)
	var kind coherence.AccessKind
	var store uint64
	var rmw func(uint64) uint64
	switch op.Kind {
	case cpu.OpLoad:
		kind = coherence.AccessLoad
	case cpu.OpStore:
		kind, store = coherence.AccessStore, op.Value
	case cpu.OpAtomic:
		kind, store, rmw = coherence.AccessAtomicRMW, op.Value, op.Fn
	case cpu.OpPrefetch:
		kind = coherence.AccessPrefetch
	case cpu.OpReduce:
		kind, store = coherence.AccessReduce, op.Value
	case cpu.OpCompute:
		w.st.AddID(stats.IDComputeCycles, op.Cycles)
		return 0
	default:
		panic("sim: unknown op kind in warming")
	}
	return w.warmer.Access(w.core, kind, op.Addr, op.Size, store, rmw)
}

// drained reports whether the machine is architecturally quiescent under held
// issue: no outstanding core accesses, no in-flight messages, no busy
// controllers.
func (s *System) drained() bool {
	for _, c := range s.cores {
		if io, ok := c.(*cpu.InOrder); ok && io.Outstanding() {
			return false
		}
	}
	if s.net.Pending() != 0 {
		return false
	}
	for _, l := range s.l1s {
		if !l.Idle() {
			return false
		}
	}
	for _, d := range s.dirs {
		if !d.Idle() {
			return false
		}
	}
	return true
}

// allFinished reports whether every thread has run to completion.
func (s *System) allFinished() bool {
	for _, c := range s.cores {
		if !c.Finished() {
			return false
		}
	}
	return true
}
