package sim

import (
	"errors"
	"fmt"
)

// ErrUnsupported marks a configuration the simulator cannot run as asked.
// Every rejection by the compatibility table wraps it.
var ErrUnsupported = errors.New("unsupported configuration")

// The compatibility table. Interval sampling restricts the machine shape it
// runs on: each row pairs the feature with one requirement, and a
// configuration that uses the feature but breaks the requirement is
// rejected (the run would be wrong or incomplete). Check is the only place
// these rules are decided.

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
	sampling = feature{"sampling", func(c Config) bool { return c.Sample.Enabled() }}

	skipEngine = requirement{"the skip engine", func(c Config) bool { return c.Engine == EngineSkip }}
	inOrder    = requirement{"in-order cores (no OOO)", func(c Config) bool { return !c.OOO }}
	twoLevel   = requirement{"a two-level hierarchy (no private L2)", func(c Config) bool { return c.Params.L2Entries == 0 }}
	inclusive  = requirement{"an inclusive LLC", func(c Config) bool { return !c.Params.NonInclusiveLLC }}
	noVerify   = requirement{"no load oracle or SWMR scanning (Verify)", func(c Config) bool { return !c.Verify }}
	noObs      = requirement{"no observability attachment", func(c Config) bool { return c.Obs == nil }}
)

// compatRules is the table itself, one row per (feature, requirement).
// Warming commits bypass timing, observers and oracles, and model only the
// in-order two-level inclusive machine.
var compatRules = []struct {
	f feature
	r requirement
}{
	{sampling, skipEngine},
	{sampling, inOrder},
	{sampling, twoLevel},
	{sampling, inclusive},
	{sampling, noVerify},
	{sampling, noObs},
}

// Check applies the compatibility table to cfg. It returns the engine the
// run will use, a warning when that differs from cfg.Engine, and an error
// wrapping ErrUnsupported when cfg combines a feature with a shape it cannot
// run on. EngineParallel is resolved to EngineSkip before any row applies.
func Check(cfg Config) (Engine, []string, error) {
	var warnings []string
	if cfg.Engine == EngineParallel {
		cfg.Engine = EngineSkip
		warnings = []string{"the parallel engine was removed; running the skip engine instead (results are byte-identical)"}
	}
	for _, row := range compatRules {
		if row.f.on(cfg) && !row.r.met(cfg) {
			return cfg.Engine, nil, fmt.Errorf("%w: %s requires %s", ErrUnsupported, row.f.name, row.r.text)
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
	if s.commitTrace != nil && sampling.on(s.cfg) {
		return fmt.Errorf("%w: sampling requires no commit observer", ErrUnsupported)
	}
	return nil
}
