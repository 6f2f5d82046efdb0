package fscoherence

import (
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"

	"fscoherence/internal/checkpoint"
	"fscoherence/internal/forensics"
	"fscoherence/internal/sim"
	"fscoherence/internal/workload"
)

// Crash-resilient runs: RunControlled wraps Run with deterministic
// checkpoint/restore. Checkpoints capture the complete architectural state
// of the drained machine (see internal/sim and internal/checkpoint); a
// resumed run continues byte-identically to an uninterrupted run with the
// same checkpoint cadence. Corrupt, truncated, version-skewed or
// wrong-configuration checkpoints are detected by the envelope's CRC,
// format version and identity hash, and degrade gracefully to a cold run
// with a warning in Result.Warnings — never a panic, never silent reuse of
// bad state.
//
// RunControl is deliberately separate from Options: Options is the memo key
// and seed source for sweeps (runner.Seed hashes its Go-syntax form), so
// checkpoint knobs must not change cell identity — the same cell resumed
// from a checkpoint IS the same cell.

// DefaultCheckpointEvery is the checkpoint cadence (committed L1D accesses
// between drain boundaries) used when checkpointing is requested without an
// explicit cadence.
const DefaultCheckpointEvery = 1_000_000

// RunControl configures crash-resilience for one run. The zero value runs
// exactly like Run.
type RunControl struct {
	// CheckpointPath, when set, receives a checkpoint at every boundary
	// (atomically: temp file + fsync + rename, each write replacing the
	// last).
	CheckpointPath string

	// CheckpointEvery is the boundary cadence in committed L1D accesses
	// (parse human-readable counts with sample.ParseCount). 0 picks
	// DefaultCheckpointEvery when checkpointing is otherwise enabled. The
	// cadence is part of the run's semantics: boundary drains perturb
	// timing, so byte-equality holds between runs of the same cadence
	// (sampled runs piggyback on their existing window boundaries and are
	// cadence-insensitive).
	CheckpointEvery uint64

	// Resume names a checkpoint file to restore before running. A missing,
	// corrupt, version-skewed or wrong-identity file degrades to a cold run
	// with a warning.
	Resume string

	// CacheDir, when set, is the warm-state cache: checkpoints are also
	// written to CacheDir/<bench>-<identity>.ckpt, and a run finding a valid
	// file under its own identity resumes from it automatically (explicit
	// Resume takes precedence).
	CacheDir string

	// Cancel, when non-nil, is polled by the simulator roughly once per
	// loop iteration; returning true aborts the run (the supervision
	// watchdog's cooperative kill).
	Cancel func() bool

	// OnCheckpoint, when non-nil, runs after the n-th successful checkpoint
	// write (n counts from 1). Returning an error aborts the run — tests
	// use it to crash at an exact boundary; supervisors use it to journal
	// checkpoint progress.
	OnCheckpoint func(n int) error
}

// enabled reports whether any crash-resilience feature is requested.
func (c RunControl) enabled() bool {
	return c.CheckpointPath != "" || c.CheckpointEvery > 0 || c.Resume != "" || c.CacheDir != ""
}

// CheckpointCompatible reports whether a cell's options support
// checkpoint/restore (sweeps use it to skip checkpointing on incompatible
// cells instead of failing them).
func CheckpointCompatible(opt Options) bool {
	_, _, err := buildConfig(opt, DefaultCheckpointEvery)
	return err == nil
}

// ckptIdentity is the hashed identity of a checkpointed execution: the
// benchmark, the normalized options, the checkpoint cadence (cadence defines
// the execution) and the envelope format version. Everything that changes
// the machine's byte-exact trajectory is in here; everything that does not
// (engine choice, shard count) is normalized out.
type ckptIdentity struct {
	Bench   string
	Opt     Options
	Every   uint64
	Version uint32
}

// checkpointIdentity computes the identity hash stored in (and demanded
// from) every checkpoint envelope for this run.
func checkpointIdentity(bench string, opt Options, every uint64) uint64 {
	opt = opt.normalized()
	opt.Engine = "skip" // all engines are byte-identical; checkpointed runs use skip
	h := fnv.New64a()
	fmt.Fprintf(h, "%#v", ckptIdentity{Bench: bench, Opt: opt, Every: every, Version: checkpoint.Version})
	return h.Sum64()
}

// cacheFilePath names a cell's warm-state cache file: the benchmark for
// humans, the identity hash for the machine (a cadence or options change
// changes the name, so stale state is never even opened).
func cacheFilePath(dir, bench string, identity uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%s-%016x.ckpt", bench, identity))
}

// loadResume resolves and loads the resume state: the explicit Resume path
// first, else the warm-state cache file when present. Every failure mode —
// missing file, torn write, CRC mismatch, version skew, identity mismatch,
// undecodable payload — returns a nil state plus a warning; the caller runs
// cold.
func loadResume(ctl RunControl, cacheFile string, identity uint64) (*sim.MachineState, []string) {
	path := ctl.Resume
	if path == "" && cacheFile != "" {
		if _, err := os.Stat(cacheFile); err == nil {
			path = cacheFile
		}
	}
	if path == "" {
		return nil, nil
	}
	payload, err := checkpoint.Read(path, identity)
	if err != nil {
		return nil, []string{fmt.Sprintf("checkpoint %s rejected: %v; running cold", path, err)}
	}
	ms, err := sim.DecodeMachineState(payload)
	if err != nil {
		return nil, []string{fmt.Sprintf("checkpoint %s undecodable: %v; running cold", path, err)}
	}
	return ms, nil
}

// RunControlled executes benchmark bench under opt like Run, with
// crash-resilience per ctl: periodic checkpoints, resume, warm-state cache
// and cooperative cancellation. Warnings (engine fallback, rejected
// checkpoints) are reported in Result.Warnings.
func RunControlled(bench string, opt Options, ctl RunControl) (*Result, error) {
	spec, err := workload.ByName(bench)
	if err != nil {
		return nil, err
	}
	opt = opt.normalized()
	if ctl.enabled() && ctl.CheckpointEvery == 0 {
		ctl.CheckpointEvery = DefaultCheckpointEvery
	}
	cfg, warnings, err := buildConfig(opt, ctl.CheckpointEvery)
	if err != nil {
		return nil, err
	}
	if rec := opt.Forensics; rec != nil {
		// The recorder reads this run only, also when opt.Obs's tracer
		// outlives it.
		rec.Begin(cfg.Params.BlockSize)
		cfg.Obs.Tracer.SetTap(rec.Record)
		defer cfg.Obs.Tracer.SetTap(nil)
	}
	// Cancellation is independent of checkpointing: a supervised cell polls
	// its watchdog even when its options cannot checkpoint.
	cfg.Cancel = ctl.Cancel
	var identity uint64
	var cacheFile string
	if ctl.enabled() {
		identity = checkpointIdentity(bench, opt, ctl.CheckpointEvery)
		if ctl.CacheDir != "" {
			cacheFile = cacheFilePath(ctl.CacheDir, bench, identity)
		}
		if ctl.CheckpointPath != "" || cacheFile != "" || ctl.OnCheckpoint != nil {
			n := 0
			ckpt := ctl // capture by value; the sink outlives this frame
			cfg.CheckpointSink = func(ms *sim.MachineState) error {
				payload, err := ms.Encode()
				if err != nil {
					return err
				}
				if ckpt.CheckpointPath != "" {
					if err := checkpoint.Write(ckpt.CheckpointPath, identity, payload); err != nil {
						return err
					}
				}
				if cacheFile != "" {
					if err := checkpoint.Write(cacheFile, identity, payload); err != nil {
						return err
					}
				}
				n++
				if ckpt.OnCheckpoint != nil {
					return ckpt.OnCheckpoint(n)
				}
				return nil
			}
		}
	}

	// build assembles a fresh system; a failed restore rebuilds from scratch
	// (the failed replay may have advanced thread closures, so both the
	// system and the workload closures are remade).
	build := func() (*sim.System, *forensics.GroundTruth) {
		threads, regions, gt := spec.BuildLabeled(opt.Variant, workload.Scale(opt.Scale), opt.Cores)
		return sim.New(cfg, sim.Workload{Name: bench, Threads: threads, ReductionRegions: regions}), gt
	}
	system, gt := build()
	if ctl.enabled() {
		ms, w := loadResume(ctl, cacheFile, identity)
		warnings = append(warnings, w...)
		if ms != nil {
			if err := system.Restore(ms); err != nil {
				warnings = append(warnings, fmt.Sprintf("restore failed: %v; running cold", err))
				system.Stop()
				system, gt = build()
			}
		}
	}

	res, err := system.Run(bench)
	if err != nil {
		return nil, fmt.Errorf("run %s under %v: %w", bench, opt.Protocol, err)
	}
	out := assembleResult(bench, opt, gt, res)
	out.Warnings = warnings
	return out, nil
}
