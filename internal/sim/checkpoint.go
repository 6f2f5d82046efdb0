package sim

import (
	"bytes"
	"encoding/gob"
	"fmt"

	"fscoherence/internal/coherence"
	"fscoherence/internal/core"
	"fscoherence/internal/cpu"
	"fscoherence/internal/memsys"
	"fscoherence/internal/sample"
	"fscoherence/internal/stats"
)

// Checkpointing captures the complete architectural state of a drained
// machine — every cache line with its coherence state and LRU position, the
// directory FSMs, the FSDetect/FSLite metadata (PAM, SAM, privatization
// episodes, accumulated detections), memory contents, per-core thread replay
// state and the full counter set — as a single gob-serializable value. A
// restored system continues byte-identically to the original: same cycle
// counts, same counters, same detections.
//
// Snapshots are only taken at drained boundaries (issue held on every core,
// all in-flight transactions retired, network empty), where all transient
// state is empty by construction and none of it needs to travel. The network
// therefore needs no image at all. Draining perturbs timing relative to an
// uncheckpointed run, so a checkpoint cadence defines its own deterministic
// execution: resume byte-equality is against an uninterrupted run with the
// same cadence (sampled runs reuse their existing window boundaries, so
// checkpointing them perturbs nothing).

// MachineState is the serializable state of a drained system.
type MachineState struct {
	Cycle    uint64
	Stats    *stats.Set
	Memory   []memsys.MemBlock
	L1s      []coherence.L1Image
	Dirs     []coherence.DirImage
	PAMs     [][]core.PAMEntryImage // empty in Baseline mode
	Policies []core.PolicyImage     // empty in Baseline mode
	Threads  []cpu.ThreadImage

	// Sample carries the interval-sampling estimator state; non-nil exactly
	// when the checkpointed run was sampled.
	Sample *SampleState
}

// SampleState is the estimator side of a sampled run's checkpoint: the
// per-window observations of the cycle estimator and of each timing-domain
// counter estimator, in sampledTimingIDs order.
type SampleState struct {
	CycWindows []sample.Window
	Ests       [][]sample.Window
}

// Encode serializes the machine state (gob). Identical states encode to
// identical bytes: every map in the underlying images is flattened to a
// sorted slice and the stats set encodes through a sorted wire form.
func (ms *MachineState) Encode() ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(ms); err != nil {
		return nil, fmt.Errorf("sim: encode checkpoint: %w", err)
	}
	return buf.Bytes(), nil
}

// DecodeMachineState deserializes a machine state produced by Encode.
func DecodeMachineState(data []byte) (*MachineState, error) {
	ms := &MachineState{Stats: stats.NewSet()}
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(ms); err != nil {
		return nil, fmt.Errorf("sim: decode checkpoint: %w", err)
	}
	return ms, nil
}

// checkpointable reports whether the system may snapshot or restore: it
// must have been built for checkpointing (Config.CheckpointEvery or
// CheckpointSink), which the compatibility table (compat.go) then vetted.
func (s *System) checkpointable() error {
	if !checkpointing.on(s.cfg) {
		return fmt.Errorf("%w: checkpointing requires Config.CheckpointEvery or CheckpointSink", ErrUnsupported)
	}
	return s.supported()
}

// Snapshot captures the machine state at a drained boundary. For sampled
// runs the caller (runSampled) attaches the estimator state afterwards.
func (s *System) Snapshot() (*MachineState, error) {
	if err := s.checkpointable(); err != nil {
		return nil, err
	}
	if !s.drained() {
		return nil, fmt.Errorf("sim: snapshot of an undrained machine (cycle %d)", s.cycle)
	}
	ms := &MachineState{
		Cycle:  s.cycle,
		Stats:  stats.NewSet(),
		Memory: s.mem.Image(),
	}
	ms.Stats.CopyFrom(s.stats)
	for _, l := range s.l1s {
		img, err := l.Snapshot()
		if err != nil {
			return nil, err
		}
		ms.L1s = append(ms.L1s, img)
	}
	for _, d := range s.dirs {
		img, err := d.Snapshot()
		if err != nil {
			return nil, err
		}
		ms.Dirs = append(ms.Dirs, img)
	}
	for _, p := range s.pams {
		ms.PAMs = append(ms.PAMs, p.Snapshot())
	}
	for _, dp := range s.dirPolicies {
		ms.Policies = append(ms.Policies, dp.Snapshot())
	}
	for i, c := range s.cores {
		io, ok := c.(*cpu.InOrder)
		if !ok {
			return nil, fmt.Errorf("sim: core %d is not in-order", i)
		}
		ms.Threads = append(ms.Threads, io.SnapshotThread())
	}
	return ms, nil
}

// Restore rebuilds the machine state on a freshly constructed system that
// has not run: caches, directories, policy metadata and memory are loaded
// from their images, the counter set is replaced, and every thread is
// replayed to its exact snapshot program point (see cpu.RestoreThread). The
// system then resumes from ms.Cycle byte-identically to the original run.
func (s *System) Restore(ms *MachineState) error {
	if err := s.checkpointable(); err != nil {
		return err
	}
	if s.cycle != 0 {
		return fmt.Errorf("sim: restore into a system that already ran (cycle %d)", s.cycle)
	}
	if len(ms.L1s) != len(s.l1s) || len(ms.Dirs) != len(s.dirs) || len(ms.Threads) != len(s.cores) {
		return fmt.Errorf("sim: checkpoint shape mismatch: %d L1s/%d slices/%d threads in checkpoint, %d/%d/%d in machine",
			len(ms.L1s), len(ms.Dirs), len(ms.Threads), len(s.l1s), len(s.dirs), len(s.cores))
	}
	if len(ms.PAMs) != len(s.pams) || len(ms.Policies) != len(s.dirPolicies) {
		return fmt.Errorf("sim: checkpoint policy shape mismatch: %d PAMs/%d policies in checkpoint, %d/%d in machine (different protocol mode?)",
			len(ms.PAMs), len(ms.Policies), len(s.pams), len(s.dirPolicies))
	}
	if (ms.Sample != nil) != s.cfg.Sample.Enabled() {
		return fmt.Errorf("sim: checkpoint sampling mode mismatch (checkpoint sampled=%v, run sampled=%v)",
			ms.Sample != nil, s.cfg.Sample.Enabled())
	}
	if ms.Sample != nil && len(ms.Sample.Ests) != len(sampledTimingIDs) {
		return fmt.Errorf("sim: checkpoint has %d timing estimators, machine tracks %d",
			len(ms.Sample.Ests), len(sampledTimingIDs))
	}
	if err := s.mem.RestoreImage(ms.Memory); err != nil {
		return err
	}
	for i, l := range s.l1s {
		if err := l.Restore(ms.L1s[i]); err != nil {
			return err
		}
	}
	for i, d := range s.dirs {
		if err := d.Restore(ms.Dirs[i]); err != nil {
			return err
		}
	}
	for i, p := range s.pams {
		p.Restore(ms.PAMs[i])
	}
	for i, dp := range s.dirPolicies {
		if err := dp.Restore(ms.Policies[i]); err != nil {
			return err
		}
	}
	for i, c := range s.cores {
		if err := c.(*cpu.InOrder).RestoreThread(ms.Threads[i]); err != nil {
			return err
		}
	}
	s.stats.CopyFrom(ms.Stats)
	s.cycle = ms.Cycle
	s.resumedSample = ms.Sample
	return nil
}

// pollCancel folds the external cancellation flag (Config.Cancel, set by the
// runner's watchdog) into the stop-reason mechanism. Polled once per loop
// iteration in every engine, so a timed-out cell stops within one quantum.
func (s *System) pollCancel() {
	if s.stopReason == "" && s.cfg.Cancel != nil && s.cfg.Cancel() {
		s.stopReason = "canceled"
	}
}

// emitCheckpoint snapshots the drained machine and hands it to the sink. A
// sink error aborts the run via ErrStopped (the supervisor uses this to stop
// a run whose checkpoint can no longer be written; tests use it to simulate
// a crash at an exact boundary).
func (s *System) emitCheckpoint(name string, smp *SampleState) error {
	ms, err := s.Snapshot()
	if err != nil {
		return err
	}
	ms.Sample = smp
	if err := s.cfg.CheckpointSink(ms); err != nil {
		return fmt.Errorf("%w: checkpoint sink: %v at cycle %d (%s)", ErrStopped, err, s.cycle, name)
	}
	return nil
}

// runCheckpointed is the detailed run loop with periodic checkpoint
// boundaries: ordinary timed windows of cfg.CheckpointEvery committed L1D
// accesses alternate with drains (issue held, outstanding accesses retired)
// at which the machine state is snapshotted and handed to the sink. The
// drain cycles charge to the run like any other stall, so a given cadence is
// its own deterministic execution — a resumed run is byte-identical to an
// uninterrupted run with the same cadence.
func (s *System) runCheckpointed(name string, maxCycles uint64) (*Result, error) {
	st := s.stats
	every := s.cfg.CheckpointEvery
	cores := make([]*cpu.InOrder, len(s.cores))
	for i, c := range s.cores {
		cores[i] = c.(*cpu.InOrder)
	}
	for {
		// Timed window: the ordinary skip-engine loop, until the access
		// budget is spent or the workload finishes.
		winAcc := st.GetID(stats.IDL1DAccesses)
		finished := false
		for st.GetID(stats.IDL1DAccesses)-winAcc < every {
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
		if finished {
			break
		}

		// Drain: hold issue on every core and let in-flight accesses retire.
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

		if s.cfg.CheckpointSink != nil {
			if err := s.emitCheckpoint(name, nil); err != nil {
				return nil, err
			}
		}
		if s.boundaryHook != nil {
			s.boundaryHook(s.cycle)
		}
		for _, c := range cores {
			c.HoldIssue(false)
		}
	}
	return s.buildResult(name), nil
}
