package fscoherence

import (
	"fmt"
	"strings"

	"fscoherence/internal/coherence"
	"fscoherence/internal/core"
	"fscoherence/internal/energy"
	"fscoherence/internal/forensics"
	"fscoherence/internal/memsys"
	"fscoherence/internal/network"
	"fscoherence/internal/obs"
	"fscoherence/internal/sample"
	"fscoherence/internal/sim"
	"fscoherence/internal/stats"
	"fscoherence/internal/workload"
)

// Protocol selects the coherence protocol for a run.
type Protocol = coherence.Protocol

// Re-exported protocol constants.
const (
	Baseline = coherence.Baseline
	FSDetect = coherence.FSDetect
	FSLite   = coherence.FSLite
)

// ParseProtocol resolves a protocol name, case-insensitively: baseline (or
// mesi), fsdetect (or detect), fslite (or lite).
func ParseProtocol(s string) (Protocol, error) { return coherence.ParseProtocol(s) }

// Variant selects the workload data layout.
type Variant = workload.Variant

// Re-exported layout variants.
const (
	LayoutDefault = workload.VariantDefault
	LayoutPadded  = workload.VariantPadded
	LayoutHuron   = workload.VariantHuron
)

// ParseVariant resolves a layout name, case-insensitively: default (or the
// empty string), padded (or manual), huron.
func ParseVariant(s string) (Variant, error) {
	switch strings.ToLower(s) {
	case "default", "":
		return LayoutDefault, nil
	case "padded", "manual":
		return LayoutPadded, nil
	case "huron":
		return LayoutHuron, nil
	}
	return 0, fmt.Errorf("unknown variant %q (want default, padded or huron)", s)
}

// ErrUnsupported is wrapped by every error that rejects an Options
// combination the simulator cannot run (internal/sim/compat.go holds the
// rules).
var ErrUnsupported = sim.ErrUnsupported

// Detection re-exports the FSDetect report entry.
type Detection = core.Detection

// DefaultBlockSize returns the simulated cache-line size in bytes (Table II),
// the granularity at which trace filters match addresses.
func DefaultBlockSize() int { return coherence.DefaultParams().BlockSize }

// Options configures a single run. The zero value runs the baseline
// protocol on the default layout at scale 1 with the Table II system.
type Options struct {
	Protocol Protocol
	Variant  Variant

	// Scale multiplies the workload size (1.0 = calibrated default).
	Scale float64

	// L1KB overrides the per-core L1D capacity in KB (default 32;
	// §VIII-B studies use 128 and 512).
	L1KB int

	// L2KB enables a private mid-level cache of the given capacity per core
	// (§VII three-level hierarchy; 0 = two-level).
	L2KB int

	// NonInclusiveLLC decouples the sparse directory from the LLC data
	// array (§VII): directory entries track twice as many blocks as the
	// data array holds.
	NonInclusiveLLC bool

	// TauP overrides the privatization threshold (default 16, Fig. 16
	// studies 32 and 64).
	TauP uint32

	// SAMEntries overrides the per-slice SAM table capacity (default 128).
	SAMEntries int

	// Granularity overrides the metadata tracking grain in bytes
	// (default 1; §VIII-B studies 2 and 4).
	Granularity int

	// ReaderOpt enables the §VI last-reader+overflow SAM optimization.
	ReaderOpt bool

	// OOO selects the 8-wide out-of-order core model (§VIII-B).
	OOO bool

	// Verify enables the golden-memory oracle, SWMR invariant scanning and
	// the stalled-core liveness check (slower; used by tests).
	Verify bool

	// MaxCycles bounds the run (0 = default guard).
	MaxCycles uint64

	// Engine selects the simulation loop: "" or "skip" for the quiescence-
	// skipping engine (the default), "naive" for the cycle-stepped reference
	// loop. Both are cycle-exact and produce byte-identical results.
	// "parallel", the removed conservative parallel engine, is accepted and
	// runs skip with a warning in Result.Warnings.
	Engine string

	// Cores scales the machine to an n-core big-machine configuration
	// (power of two up to 256; 0 = the Table II 8-core default). Slice
	// count and LLC capacity scale with it (see coherence.ScaleToCores).
	// Machine-scalable workloads populate every core; fixed-shape ones
	// keep their calibrated thread count.
	Cores int

	// Topology selects the interconnect: "" or "flat" for the paper's
	// fixed-latency fabric, "ring" or "mesh" for an on-chip network with
	// per-hop latency and link contention.
	Topology string

	// Shards was the removed parallel engine's worker count.
	//
	// Deprecated: ignored.
	Shards int

	// Obs attaches the unified observability layer (event tracing and
	// interval metrics) to the run. Options stays comparable — the pointer
	// participates in Runner memo keys, so two cells tracing into distinct
	// attachments are distinct cells.
	Obs *obs.Obs

	// Forensics attaches the per-line flight recorder (byte×core heatmaps,
	// decision timelines, repair-efficacy attribution; see
	// internal/forensics). Nil — the default — disables it at zero cost.
	// Like Obs, the pointer keeps Options comparable.
	Forensics *forensics.Recorder

	// Sample enables SMARTS-style interval sampling as a "detailed:warming"
	// spec in committed accesses, e.g. "50k:950k" (see internal/sample).
	// Detailed windows run the full timed engine; warming windows apply every
	// architectural state change — caches, directory, PAM/SAM, memory values —
	// with no timing, keeping detection and repair state warm. Timing-domain
	// metrics come back as estimates with confidence intervals
	// (Result.Sampled); all other counters are exact. Sampling requires the
	// default machine shape: skip engine, in-order cores, two-level inclusive
	// hierarchy, no Obs/Forensics attachments (Validate reports a violation).
	// Verify composes with it: the oracle checks warming commits too.
	Sample string
}

// Result summarizes one run.
type Result struct {
	Benchmark string
	Protocol  Protocol
	Variant   Variant

	Cycles uint64
	Stats  *stats.Set

	// MissFraction is the fraction of L1D accesses that missed (Fig. 13).
	MissFraction float64

	// Energy is the modelled cache-hierarchy energy (arbitrary units;
	// meaningful as a ratio between runs — Fig. 14b/15).
	Energy float64

	// Detections is FSDetect's report of falsely shared lines.
	Detections []Detection

	// Contended is FSDetect's report of contended truly-shared lines
	// (typically synchronization variables) — the §VII extension.
	Contended []Detection

	// Violations holds oracle/SWMR failures when Verify was set.
	Violations []string

	// Obs is the observability attachment the run wrote into (copied from
	// Options.Obs; nil when observability was off).
	Obs *obs.Obs

	// Forensics is the flight recorder the run wrote into (copied from
	// Options.Forensics; nil when forensics was off).
	Forensics *forensics.Recorder

	// GroundTruth labels every line the workload allocated as falsely
	// shared, truly shared or private by construction. Always populated;
	// with Forensics attached, forensics.Score(Forensics, GroundTruth)
	// yields the run's detection precision/recall.
	GroundTruth *forensics.GroundTruth

	// Sampled carries the estimation report of an interval-sampled run
	// (Options.Sample): per-metric estimates with 95% confidence intervals,
	// window counts and detail coverage. Nil for fully-timed runs.
	Sampled *SampledRun

	// Warnings reports non-fatal degradations of the run: the removed
	// parallel engine requested and the skip engine run instead.
	Warnings []string
}

// SampledRun re-exports the sampling estimation report.
type SampledRun = sim.SampledRun

// Estimate re-exports the sampled-metric estimate (mean, CI95, coverage).
type Estimate = stats.Estimate

// MetricSummary implements runner.MetricSummarizer: headline per-run metrics
// the sweep engine folds into its Report. Peak-suffixed entries merge by max
// across cells, the rest sum.
func (r *Result) MetricSummary() map[string]uint64 {
	m := map[string]uint64{
		"runs":                          1,
		"cycles":                        r.Cycles,
		"detections":                    uint64(len(r.Detections)),
		"contended":                     uint64(len(r.Contended)),
		"cycles.max" + stats.PeakSuffix: r.Cycles,
	}
	if s := r.Sampled; s != nil {
		m["sampled.cells"] = 1
		m["sampled.windows"] = uint64(s.Windows)
		m["sampled.accesses"] = s.Accesses
		m["sampled.detailed"] = s.Detailed
	}
	if t := r.Obs.GetTracer(); t != nil {
		m["trace.events"] = t.Total()
		m["trace.dropped"] = t.Dropped()
	}
	for _, h := range r.Obs.GetMetrics().Histograms() {
		m["hist."+h.Name+".n"] = h.Count()
		m["hist."+h.Name+".sum"] = h.Sum()
		m["hist."+h.Name+".max"+stats.PeakSuffix] = h.Max()
	}
	return m
}

// Speedup returns base.Cycles / r.Cycles: how much faster r is than base.
func (r *Result) Speedup(base *Result) float64 {
	return float64(base.Cycles) / float64(r.Cycles)
}

// NormalizedEnergy returns r.Energy / base.Energy.
func (r *Result) NormalizedEnergy(base *Result) float64 {
	return r.Energy / base.Energy
}

// Validate reports whether opt can run: every field parses, and the
// compatibility table accepts the combination (an error wrapping
// ErrUnsupported when it does not). The CLIs call it before any cell runs.
func (opt Options) Validate() error {
	_, _, err := buildConfig(opt)
	return err
}

// normalized returns opt with every spelling of the same run folded to one:
// Scale 0 is 1, Engine "" is "skip", Topology "flat" is "" and the ignored
// Shards is 0. Memo keys and seeds are taken from it.
func (opt Options) normalized() Options {
	if opt.Scale == 0 {
		opt.Scale = 1
	}
	if opt.Engine == "" {
		opt.Engine = "skip"
	}
	if opt.Topology == "flat" {
		opt.Topology = ""
	}
	opt.Shards = 0
	return opt
}

// buildConfig translates Options into the simulator configuration and
// applies the compatibility table: it returns the table's warnings, or its
// rejection.
func buildConfig(opt Options) (sim.Config, []string, error) {
	cfg := sim.DefaultConfig(opt.Protocol)
	if opt.L1KB > 0 {
		cfg.Params.L1Entries = opt.L1KB * 1024 / cfg.Params.BlockSize
	}
	if opt.L2KB > 0 {
		cfg.Params.L2Entries = opt.L2KB * 1024 / cfg.Params.BlockSize
		cfg.Params.L2Ways = 8
		cfg.Params.L2HitCycles = 12
	}
	if opt.NonInclusiveLLC {
		cfg.Params.NonInclusiveLLC = true
	}
	if opt.TauP > 0 {
		cfg.Core.TauP = opt.TauP
		cfg.Core.TauR1 = opt.TauP
	}
	if opt.SAMEntries > 0 {
		cfg.Core.SAMEntries = opt.SAMEntries
	}
	if opt.Granularity > 0 {
		cfg.Core.Granularity = opt.Granularity
	}
	cfg.Core.ReaderOpt = opt.ReaderOpt
	cfg.OOO = opt.OOO
	cfg.Verify = opt.Verify
	if opt.MaxCycles > 0 {
		cfg.MaxCycles = opt.MaxCycles
	}
	switch opt.Engine {
	case "", "skip":
		cfg.Engine = sim.EngineSkip
	case "naive":
		cfg.Engine = sim.EngineNaive
	case "parallel":
		cfg.Engine = sim.EngineParallel
	default:
		return cfg, nil, fmt.Errorf("unknown engine %q (want \"skip\" or \"naive\")", opt.Engine)
	}
	if c := opt.Cores; c != 0 {
		if c < 1 || c > memsys.MaxCores || c&(c-1) != 0 {
			return cfg, nil, fmt.Errorf("unsupported core count %d (want a power of two up to %d)", c, memsys.MaxCores)
		}
		cfg.Params = cfg.Params.ScaleToCores(c)
	}
	kind, err := network.ParseTopoKind(opt.Topology)
	if err != nil {
		return cfg, nil, err
	}
	cfg.Params.Topology = kind
	cfg.Obs = opt.Obs
	if opt.Forensics != nil && opt.Obs.GetTracer() == nil {
		// The flight recorder reads the run's event stream: give the run a
		// tracer that keeps no events, beside any metrics opt.Obs carries.
		cfg.Obs = &obs.Obs{Tracer: obs.NewTracer(obs.Config{TraceCapacity: -1}), Metrics: opt.Obs.GetMetrics()}
	}
	if opt.Sample != "" {
		if cfg.Sample, err = sample.ParseSpec(opt.Sample); err != nil {
			return cfg, nil, err
		}
	}
	_, warnings, err := sim.Check(cfg)
	return cfg, warnings, err
}

// Run executes benchmark bench (a workload code such as "RC"; see
// Benchmarks) under the given options.
//
// Run is a pure function of (bench, opt) and is safe to call from many
// goroutines at once: every call assembles a fresh sim.System with its own
// stats.Set, memory image, controllers and thread closures, and no package
// in the simulator keeps mutable global state (workload models draw from
// per-closure PRNG streams seeded by construction, never from math/rand's
// global source). The Runner engine relies on both properties for its
// memoization and parallel fan-out; `go test -race ./...` guards them.
func Run(bench string, opt Options) (*Result, error) {
	return run(bench, opt, nil)
}

// run is Run with cooperative cancellation: a non-nil cancel is polled by
// the simulator roughly once per loop iteration, and returning true aborts
// the run with an error wrapping sim.ErrStopped (Runner.SetTimeout's
// watchdog).
func run(bench string, opt Options, cancel func() bool) (*Result, error) {
	spec, err := workload.ByName(bench)
	if err != nil {
		return nil, err
	}
	opt = opt.normalized()
	cfg, warnings, err := buildConfig(opt)
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
	cfg.Cancel = cancel
	threads, regions, gt := spec.BuildLabeled(opt.Variant, workload.Scale(opt.Scale), opt.Cores)
	res, err := sim.New(cfg, sim.Workload{Name: bench, Threads: threads, ReductionRegions: regions}).Run(bench)
	if err != nil {
		return nil, fmt.Errorf("run %s under %v: %w", bench, opt.Protocol, err)
	}
	out := &Result{
		Benchmark:    bench,
		Protocol:     opt.Protocol,
		Variant:      opt.Variant,
		Cycles:       res.Cycles,
		Stats:        res.Stats,
		MissFraction: res.Stats.Ratio(stats.CtrL1DMisses, stats.CtrL1DAccesses),
		Detections:   res.Detections,
		Contended:    res.Contended,
		Obs:          opt.Obs,
		Forensics:    opt.Forensics,
		GroundTruth:  gt,
		Sampled:      res.Sampled,
	}
	out.Energy = energy.Default().Compute(res.Stats, opt.Protocol != Baseline).Total()
	out.Violations = append(out.Violations, res.OracleViolations...)
	out.Violations = append(out.Violations, res.SWMRViolations...)
	out.Warnings = warnings
	return out, nil
}

// BenchmarkInfo describes a registered workload model (Table III).
type BenchmarkInfo struct {
	Name         string
	Full         string
	Suite        string
	FalseSharing bool
	Threads      int
}

// Benchmarks lists all registered workload models.
func Benchmarks() []BenchmarkInfo {
	var out []BenchmarkInfo
	for _, n := range workload.Names() {
		s, _ := workload.ByName(n)
		out = append(out, BenchmarkInfo{
			Name: s.Name, Full: s.Full, Suite: s.Suite,
			FalseSharing: s.FalseSharing, Threads: s.Threads,
		})
	}
	return out
}

// FalseSharingBenchmarks returns the paper's Fig. 2/13/14 set.
func FalseSharingBenchmarks() []string { return workload.FalseSharingSet() }

// NoFalseSharingBenchmarks returns the paper's Fig. 15 set.
func NoFalseSharingBenchmarks() []string { return workload.NoFalseSharingSet() }

// HuronBenchmarks returns the paper's Fig. 17 comparison set.
func HuronBenchmarks() []string { return workload.HuronSet() }
