package sim

import (
	"errors"
	"testing"

	"fscoherence/internal/coherence"
	"fscoherence/internal/network"
	"fscoherence/internal/obs"
	"fscoherence/internal/sample"
)

// TestCheckRows pins a few rows of the compatibility table by hand.
func TestCheckRows(t *testing.T) {
	spec, err := sample.ParseSpec("1k:3k")
	if err != nil {
		t.Fatal(err)
	}
	base := DefaultConfig(coherence.FSLite)
	cases := []struct {
		name   string
		edit   func(*Config)
		engine Engine
		warn   bool
		reject bool
	}{
		{"default", func(*Config) {}, EngineSkip, false, false},
		{"parallel", func(c *Config) { c.Engine = EngineParallel }, EngineSkip, true, false},
		{"parallel+obs", func(c *Config) { c.Engine = EngineParallel; c.Obs = obs.New(obs.Config{}) }, EngineSkip, true, false},
		{"parallel+zero-latency", func(c *Config) { c.Engine = EngineParallel; c.Params.NetLatency = 0 }, EngineSkip, true, false},
		{"parallel+faults", func(c *Config) { c.Engine = EngineParallel; c.Faults = &network.FaultPlan{} }, EngineSkip, true, false},
		{"naive+verify", func(c *Config) { c.Engine = EngineNaive; c.Verify = true }, EngineNaive, false, false},
		{"sample", func(c *Config) { c.Sample = spec }, EngineSkip, false, false},
		{"sample+verify", func(c *Config) { c.Sample = spec; c.Verify = true }, EngineSkip, false, false},
		{"sample+parallel", func(c *Config) { c.Sample = spec; c.Engine = EngineParallel }, EngineSkip, true, false},
		{"sample+parallel+ooo", func(c *Config) { c.Sample = spec; c.Engine = EngineParallel; c.OOO = true }, 0, false, true},
		{"sample+ooo", func(c *Config) { c.Sample = spec; c.OOO = true }, 0, false, true},
		{"sample+naive", func(c *Config) { c.Sample = spec; c.Engine = EngineNaive }, 0, false, true},
	}
	for _, tc := range cases {
		cfg := base
		tc.edit(&cfg)
		eng, warns, err := Check(cfg)
		if tc.reject {
			if !errors.Is(err, ErrUnsupported) {
				t.Errorf("%s: error %v, want one wrapping ErrUnsupported", tc.name, err)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: unexpected error %v", tc.name, err)
			continue
		}
		if eng != tc.engine || (len(warns) == 1) != tc.warn || len(warns) > 1 {
			t.Errorf("%s: engine %v warnings %q, want engine %v and one warning %v", tc.name, eng, warns, tc.engine, tc.warn)
		}
	}
}
