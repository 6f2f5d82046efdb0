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

// warmQuantum caps the operations one core commits per warming round. Large
// enough to amortize the per-quantum coroutine switch to noise, small enough
// that spin-wait loops (locks, barriers) hand off within a round and windows
// land near their spec.
const warmQuantum = 256

// sampledTimingIDs are the timing-domain counters that only accrue while the
// detailed engine runs; the sampled loop estimates their whole-run values by
// ratio extrapolation. Cycles are handled separately (the clock is not a
// counter slot during the run). Every other counter accrues functionally in
// warming windows too and stays exact.
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

// SetBoundaryHook installs a function invoked at every window boundary of a
// sampled run: after each drain and after each warming window (testing:
// invariant oracles see a quiescent machine).
func (s *System) SetBoundaryHook(fn func(cycle uint64)) { s.boundaryHook = fn }

// runSampled is the interval-sampling run loop. Timed windows of
// Sample.Detailed committed L1D accesses each end in a drain (issue held on
// every core, in-flight accesses retired), so every window boundary finds
// the machine architecturally quiescent. Each window is recorded in the
// estimators; then the next Sample.Warming accesses commit functionally
// through coherence.Warmer with no timing.
func (s *System) runSampled(name string, maxCycles uint64) (*Result, error) {
	spec := s.cfg.Sample
	st := s.stats
	cores := make([]*cpu.InOrder, len(s.cores))
	for i, c := range s.cores {
		cores[i] = c.(*cpu.InOrder)
	}
	hold := func(on bool) {
		for _, c := range cores {
			c.HoldIssue(on)
		}
	}

	warmer := coherence.NewWarmer(s.cfg.Params, s.cfg.Mode, s.l1s, s.dirs, s.mem)
	sinks := make([]*warmSink, len(s.cores))
	for i := range sinks {
		sinks[i] = &warmSink{core: i, st: st, warmer: warmer}
	}
	var cycEst sample.Estimator
	ests := make([]sample.Estimator, len(sampledTimingIDs))
	snap := make([]uint64, len(sampledTimingIDs))

	for {
		// Timed window, until the access budget is spent or the workload
		// finishes; then the drain, whose cycles and traffic charge to the
		// window.
		winAcc := st.GetID(stats.IDL1DAccesses)
		winCyc := s.cycle
		for i := range snap {
			snap[i] = st.GetID(sampledTimingIDs[i])
		}
		finished, err := s.advance(name, maxCycles, false, spec.Detailed)
		if err != nil {
			return nil, err
		}
		hold(true)
		if _, err := s.advance(name, maxCycles, true, 0); err != nil {
			return nil, err
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
		if finished || s.finished() {
			hold(false)
			break
		}

		// Warming window: commit operations functionally in round-robin
		// quanta — each unfinished core runs up to warmQuantum operations
		// inside its thread coroutine per round (one coroutine round trip
		// per quantum, not per op), with the clock advancing one cycle per
		// round (episode timestamps advance in compressed time). Tail
		// rounds shrink the quantum to the remaining per-core budget so
		// the window lands near its spec. Forced terminations drain each
		// round, standing in for the directory Tick.
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
					st.AddID(stats.IDOpsCommitted, n)
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
		hold(false)
		if s.finished() {
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
// boundary-held ops and the kinds without a typed shortcut. The sampled loop
// counts committed ops per quantum, from WarmRun's return.
type warmSink struct {
	core   int
	st     *stats.Set
	warmer *coherence.Warmer
}

func (w *warmSink) Load(addr memsys.Addr, size int) uint64 {
	return w.warmer.Access(w.core, coherence.AccessLoad, addr, size, 0, nil)
}

func (w *warmSink) Store(addr memsys.Addr, size int, v uint64) {
	w.warmer.Access(w.core, coherence.AccessStore, addr, size, v, nil)
}

func (w *warmSink) AtomicAdd(addr memsys.Addr, size int, delta uint64) uint64 {
	return w.warmer.Access(w.core, coherence.AccessAtomicRMW, addr, size, delta, nil)
}

func (w *warmSink) Compute(n uint64) { w.st.AddID(stats.IDComputeCycles, n) }

func (w *warmSink) ApplyOp(op *cpu.Op) uint64 {
	var kind coherence.AccessKind
	switch op.Kind {
	case cpu.OpLoad:
		kind = coherence.AccessLoad
	case cpu.OpStore:
		kind = coherence.AccessStore
	case cpu.OpAtomic:
		kind = coherence.AccessAtomicRMW
	case cpu.OpPrefetch:
		kind = coherence.AccessPrefetch
	case cpu.OpReduce:
		kind = coherence.AccessReduce
	case cpu.OpCompute:
		w.Compute(op.Cycles)
		return 0
	default:
		panic("sim: unknown op kind in warming")
	}
	return w.warmer.Access(w.core, kind, op.Addr, op.Size, op.Value, op.Fn)
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
	return s.net.Pending() == 0 && s.idle()
}
