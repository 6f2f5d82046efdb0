package sim

import (
	"errors"
	"fmt"
)

// ErrUnsupported marks a configuration the simulator cannot run as asked.
// Every rejection by the compatibility table wraps it.
var ErrUnsupported = errors.New("unsupported configuration")

// The compatibility table. Two features restrict the machine shape they run
// on: interval sampling and checkpointing. Each row pairs a feature with one
// requirement; a configuration that uses the feature but breaks the
// requirement is either rejected (the run would be wrong or incomplete) or
// falls back to the skip engine with a warning (the engines are
// byte-identical, so only host time changes). Check is the only place these
// rules are decided.

// feature is a run mode that supports only some machine shapes.
type feature struct {
	name string
	on   func(Config) bool
}

// requirement is one property of the machine shape a feature needs.
type requirement struct {
	text string
	met  func(Config) bool
}

var (
	sampling      = feature{"sampling", func(c Config) bool { return c.Sample.Enabled() }}
	checkpointing = feature{"checkpointing", func(c Config) bool { return c.CheckpointEvery > 0 || c.CheckpointSink != nil }}

	skipEngine  = requirement{"the skip engine", func(c Config) bool { return c.Engine == EngineSkip }}
	inOrder     = requirement{"in-order cores (no OOO)", func(c Config) bool { return !c.OOO }}
	twoLevel    = requirement{"a two-level hierarchy (no private L2)", func(c Config) bool { return c.Params.L2Entries == 0 }}
	inclusive   = requirement{"an inclusive LLC", func(c Config) bool { return !c.Params.NonInclusiveLLC }}
	noOracle    = requirement{"no load oracle (Verify)", func(c Config) bool { return !c.CheckOracle }}
	noSWMR      = requirement{"no SWMR scanning (Verify)", func(c Config) bool { return !c.CheckSWMR }}
	noFaults    = requirement{"no fault injection", func(c Config) bool { return c.Faults == nil }}
	noObs       = requirement{"no observability attachment", func(c Config) bool { return c.Obs == nil }}
	noForensics = requirement{"no forensics recorder", func(c Config) bool { return c.Forensics == nil }}
)

// compatRules is the table itself, one row per (feature, requirement).
var compatRules = []struct {
	f        feature
	r        requirement
	fallback bool // run under EngineSkip with a warning instead of failing
}{
	// Warming commits bypass timing, observers and oracles, and model only
	// the in-order two-level inclusive machine.
	{sampling, skipEngine, false},
	{sampling, inOrder, false},
	{sampling, twoLevel, false},
	{sampling, inclusive, false},
	{sampling, noOracle, false},
	{sampling, noObs, false},
	{sampling, noForensics, false},

	// A checkpoint serializes the architectural state of the in-order
	// two-level inclusive machine only: no oracle, scan, fault clock, tracer
	// or recorder state. Snapshots need the sequential loop; skip is
	// byte-identical.
	{checkpointing, skipEngine, true},
	{checkpointing, inOrder, false},
	{checkpointing, twoLevel, false},
	{checkpointing, inclusive, false},
	{checkpointing, noOracle, false},
	{checkpointing, noSWMR, false},
	{checkpointing, noFaults, false},
	{checkpointing, noObs, false},
	{checkpointing, noForensics, false},
}

// Check applies the compatibility table to cfg. It returns the engine the
// run will use, a warning when that differs from cfg.Engine, and an error
// wrapping ErrUnsupported when cfg combines a feature with a shape it cannot
// run on. Rejections take precedence over fallbacks. EngineParallel is
// resolved to EngineSkip before any row applies.
func Check(cfg Config) (Engine, []string, error) {
	var warnings []string
	if cfg.Engine == EngineParallel {
		cfg.Engine = EngineSkip
		warnings = []string{"the parallel engine was removed; running the skip engine instead (results are byte-identical)"}
	}
	for _, row := range compatRules {
		if !row.fallback && row.f.on(cfg) && !row.r.met(cfg) {
			return cfg.Engine, nil, fmt.Errorf("%w: %s requires %s", ErrUnsupported, row.f.name, row.r.text)
		}
	}
	for _, row := range compatRules {
		if row.fallback && row.f.on(cfg) && !row.r.met(cfg) {
			return EngineSkip, append(warnings, fmt.Sprintf("%s requires %s; running the skip engine instead (results are byte-identical)",
				row.f.name, row.r.text)), nil
		}
	}
	return cfg.Engine, warnings, nil
}

// supported returns the table's verdict on the system's configuration, then
// makes the one check no Config carries: a commit observer installed after
// New.
func (s *System) supported() error {
	if s.unsupported != nil {
		return s.unsupported
	}
	if s.commitTrace != nil && (sampling.on(s.cfg) || checkpointing.on(s.cfg)) {
		return fmt.Errorf("%w: sampling and checkpointing require no commit observer", ErrUnsupported)
	}
	return nil
}
