package sim

import (
	"errors"
	"runtime"
	"testing"

	"fscoherence/internal/coherence"
	"fscoherence/internal/cpu"
	"fscoherence/internal/memsys"
	"fscoherence/internal/network"
	"fscoherence/internal/obs"
	"fscoherence/internal/sample"
)

// TestParallelHooksReturnError: a cycle hook or commit observer installed
// after New cannot run under the parallel engine; Run says so with an error
// wrapping ErrUnsupported instead of panicking.
func TestParallelHooksReturnError(t *testing.T) {
	install := map[string]func(*System){
		"cycle hook": func(s *System) { s.SetCycleHook(func(uint64) {}) },
		"commit observer": func(s *System) {
			s.SetCommitTrace(func(uint64, int, string, memsys.Addr, []byte) {})
		},
	}
	for name, fn := range install {
		cfg := DefaultConfig(coherence.FSLite)
		cfg.Engine = EngineParallel
		s := New(cfg, Workload{Name: "par-hook", Threads: []cpu.ThreadFunc{func(c *cpu.Ctx) { c.Store(addr(0, 0), 8, 1) }}})
		if s.par == nil {
			t.Fatalf("%s: parallel engine not constructed", name)
		}
		fn(s)
		if _, err := s.Run("par-hook"); !errors.Is(err, ErrUnsupported) {
			t.Errorf("%s: Run error %v, want one wrapping ErrUnsupported", name, err)
		}
	}
}

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
		{"parallel", func(c *Config) { c.Engine = EngineParallel }, EngineParallel, false, false},
		{"parallel+obs", func(c *Config) { c.Engine = EngineParallel; c.Obs = obs.New(obs.Config{}) }, EngineSkip, true, false},
		{"parallel+checkpoint", func(c *Config) { c.Engine = EngineParallel; c.CheckpointEvery = 1000 }, EngineSkip, true, false},
		{"parallel+zero-latency", func(c *Config) { c.Engine = EngineParallel; c.Params.NetLatency = 0 }, EngineSkip, true, false},
		{"parallel+faults", func(c *Config) { c.Engine = EngineParallel; c.Faults = &network.FaultPlan{} }, EngineSkip, true, false},
		{"naive+checkpoint", func(c *Config) { c.Engine = EngineNaive; c.CheckpointEvery = 1000 }, EngineSkip, true, false},
		{"naive+verify", func(c *Config) { c.Engine = EngineNaive; c.CheckOracle = true }, EngineNaive, false, false},
		{"sample", func(c *Config) { c.Sample = spec }, EngineSkip, false, false},
		{"sample+parallel", func(c *Config) { c.Sample = spec; c.Engine = EngineParallel }, 0, false, true},
		{"sample+ooo", func(c *Config) { c.Sample = spec; c.OOO = true }, 0, false, true},
		{"sample+checkpoint+naive", func(c *Config) { c.Sample = spec; c.CheckpointEvery = 1; c.Engine = EngineNaive }, 0, false, true},
		{"checkpoint+faults", func(c *Config) { c.CheckpointEvery = 1; c.Faults = &network.FaultPlan{} }, 0, false, true},
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
		if eng != tc.engine || (len(warns) > 0) != tc.warn {
			t.Errorf("%s: engine %v warnings %q, want engine %v warning %v", tc.name, eng, warns, tc.engine, tc.warn)
		}
	}
}

// TestParallelShardsDefault: the default shard count is one per 8 cores,
// capped at GOMAXPROCS; an explicit Shards stays as given, within the core
// count and 16.
func TestParallelShardsDefault(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, tc := range []struct {
		cores, shards, procs, want int
	}{
		{8, 0, 4, 1},
		{64, 0, 1, 1},
		{64, 0, 2, 2},
		{64, 0, 16, 8},
		{256, 0, 64, 16},
		{64, 5, 2, 5},
		{64, 32, 2, 16},
		{8, 12, 2, 8},
	} {
		runtime.GOMAXPROCS(tc.procs)
		cfg := DefaultConfig(coherence.FSLite)
		cfg.Params = cfg.Params.ScaleToCores(tc.cores)
		cfg.Shards = tc.shards
		if got := parallelShards(cfg); got != tc.want {
			t.Errorf("cores=%d shards=%d GOMAXPROCS=%d: %d shards, want %d",
				tc.cores, tc.shards, tc.procs, got, tc.want)
		}
	}
}
