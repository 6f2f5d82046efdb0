package main

import (
	"fmt"
	"math"
	"time"

	"fscoherence"
	"fscoherence/internal/energy"
	"fscoherence/internal/network"
	"fscoherence/internal/sample"
	"fscoherence/internal/sim"
	"fscoherence/internal/stats"
	models "fscoherence/internal/workload"
)

// cell is one simulation: a benchmark under one set of run options.
type cell struct {
	Bench string
	Opt   fscoherence.Options

	// MinAccesses is the committed-access count the cell must reach; it is
	// the invariant checked on seeds that have no golden file.
	MinAccesses uint64
}

// workload is one benchmark input: a list of cells and the product call a
// user makes to run them.
type workload struct {
	name string
	reps int // timed reps when no time budget is given

	// table, when set, is the figure sweep a rep runs through a one-worker
	// Runner; nil runs each cell through fscoherence.Run.
	table func(*fscoherence.Runner, float64) *fscoherence.Table

	// cells lists the workload's cells at size factor f (see sizeFactor).
	cells func(f float64) []cell
}

// The four workloads stress different layers, so an optimisation of one layer
// has a workload that exercises it and one that should not move (README.md
// gives the layer shares behind each choice).
var workloads = []*workload{
	// The paper's headline sweep on the detailed engine, FSLite repair active.
	{
		name: "fig14a", reps: 15, table: fscoherence.Fig14Speedup,
		cells: func(f float64) []cell {
			return sweepCells(fscoherence.FalseSharingBenchmarks(), 0.5*f,
				fscoherence.Baseline, fscoherence.FSDetect, fscoherence.FSLite)
		},
	},
	// The same layers with nothing to privatize and a larger working set.
	{
		name: "nofs", reps: 20, table: fscoherence.Fig15NoFalseSharing,
		cells: func(f float64) []cell {
			return sweepCells(fscoherence.NoFalseSharingBenchmarks(), 8*f,
				fscoherence.Baseline, fscoherence.FSLite)
		},
	},
	// The big-machine path: mesh hops, link contention, parallel epochs.
	{
		name: "mesh64", reps: 20,
		cells: func(f float64) []cell {
			opt := fscoherence.Options{Scale: 4 * f, Cores: 64, Topology: "mesh", Engine: "parallel", Shards: procs}
			var out []cell
			for _, p := range []fscoherence.Protocol{fscoherence.Baseline, fscoherence.FSLite} {
				opt.Protocol = p
				out = append(out, cell{Bench: "uGRID", Opt: opt})
			}
			return out
		},
	},
	// Interval sampling: 0.5% of accesses detailed, the rest in the warmer.
	{
		name: "sampled", reps: 12,
		cells: func(f float64) []cell {
			target := uint64(math.Round(5e7 * f))
			// Per-thread iteration counts round down, so pad the request
			// slightly to land on or above the target.
			scale := float64(models.GridScaleForAccesses(64, target+target/500))
			return []cell{{
				Bench:       "uGRID",
				Opt:         fscoherence.Options{Protocol: fscoherence.FSLite, Scale: scale, Cores: 64, Topology: "mesh", Sample: "50k:9950k"},
				MinAccesses: target,
			}}
		},
	},
}

// procs is the GOMAXPROCS fsbench sets, and so the parallel engine's shard
// count. On a host whose few vCPUs are shared with other machines, a second
// thread makes a rep wait on whichever vCPU is slower at the moment: the
// parallel engine's epoch barrier waits on both shards, and the GC's
// background worker on the other P. With two, mesh64's runs spread 18% and
// took 0.90 s; with one, 4% and 0.70 s (README.md, "Why one P").
const procs = 1

// sweepCells lists a figure sweep's cells in the order its table submits
// them: every benchmark under the first protocol, then the next.
func sweepCells(benches []string, scale float64, protos ...fscoherence.Protocol) []cell {
	var out []cell
	for _, p := range protos {
		for _, b := range benches {
			out = append(out, cell{Bench: b, Opt: fscoherence.Options{Protocol: p, Scale: scale}})
		}
	}
	return out
}

// sizeFactor maps a seed to the factor that scales every workload's size.
// The workload models take no random input, so the seed varies the input
// through its size; the range is kept under 3% so that runs on different
// seeds still measure about the same amount of work.
func sizeFactor(seed int64) float64 {
	return 1 + float64(((seed-1)%8+8)%8)/256
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// cellRun is the modelled output of one cell.
type cellRun struct {
	err     error
	cycles  uint64
	energy  float64
	stats   *stats.Set
	sampled *sim.SampledRun
}

func (r cellRun) accesses() uint64 {
	if r.stats == nil {
		return 0
	}
	return r.stats.Get(stats.CtrL1DAccesses)
}

// runProduct runs one rep of w through the calls a user makes: the figure
// sweep on a fresh one-worker Runner, or fscoherence.Run per cell.
func runProduct(w *workload, cells []cell) []cellRun {
	out := make([]cellRun, len(cells))
	fromResult := func(res *fscoherence.Result, err error) cellRun {
		if err != nil {
			return cellRun{err: err}
		}
		return cellRun{cycles: res.Cycles, energy: res.Energy, stats: res.Stats, sampled: res.Sampled}
	}
	if w.table != nil {
		r := fscoherence.NewRunner(1)
		func() {
			// A failed cell panics out of the table builder; the loop below
			// reads each cell's error back from the Runner's memo.
			defer func() { _ = recover() }()
			w.table(r, cells[0].Opt.Scale)
		}()
		for i, c := range cells {
			out[i] = fromResult(r.Run(c.Bench, c.Opt))
		}
		return out
	}
	for i, c := range cells {
		out[i] = fromResult(fscoherence.Run(c.Bench, c.Opt))
	}
	return out
}

// simConfig translates the Options fields the workloads set into the
// simulator configuration, as fscoherence.Run does. TestAssembledMatchesRun
// keeps the two byte-identical.
func simConfig(opt fscoherence.Options) (sim.Config, error) {
	cfg := sim.DefaultConfig(opt.Protocol)
	switch opt.Engine {
	case "", "skip":
	case "parallel":
		cfg.Engine = sim.EngineParallel
	default:
		return cfg, fmt.Errorf("engine %q is not used by any workload", opt.Engine)
	}
	if opt.Cores > 0 {
		cfg.Params = cfg.Params.ScaleToCores(opt.Cores)
	}
	kind, err := network.ParseTopoKind(opt.Topology)
	if err != nil {
		return cfg, err
	}
	cfg.Params.Topology = kind
	cfg.Shards = opt.Shards
	if opt.Sample != "" {
		if cfg.Sample, err = sample.ParseSpec(opt.Sample); err != nil {
			return cfg, err
		}
	}
	return cfg, nil
}

// callTimes accumulates the wall time of the calls into each layer that the
// assembled path makes.
type callTimes struct {
	build, new, run, energy time.Duration

	// detailed and warming split run for sampled cells at window
	// boundaries; a fully timed run is all detailed.
	detailed, warming time.Duration
}

// assemble builds a cell's threads (Spec.BuildLabeled) and its system
// (sim.New) without running it, adding the time of each call to ct.
func assemble(c cell, ct *callTimes) (*sim.System, sim.Config, error) {
	cfg, err := simConfig(c.Opt)
	if err != nil {
		return nil, cfg, err
	}
	spec, err := models.ByName(c.Bench)
	if err != nil {
		return nil, cfg, err
	}
	t0 := time.Now()
	threads, regions, _ := spec.BuildLabeled(c.Opt.Variant, models.Scale(c.Opt.Scale), c.Opt.Cores)
	t1 := time.Now()
	sys := sim.New(cfg, sim.Workload{Name: c.Bench, Threads: threads, ReductionRegions: regions})
	ct.build += t1.Sub(t0)
	ct.new += time.Since(t1)
	return sys, cfg, nil
}

// setupCells builds every cell once with no simulation, then calls Stop to
// end the thread coroutines.
func setupCells(cells []cell) error {
	for _, c := range cells {
		sys, _, err := assemble(c, &callTimes{})
		if err != nil {
			return err
		}
		sys.Stop()
	}
	return nil
}

// runAssembled runs one cell through the layers' own calls —
// Spec.BuildLabeled, sim.New, System.Run, energy.Compute — timing each.
func runAssembled(c cell, ct *callTimes) cellRun {
	sys, cfg, err := assemble(c, ct)
	if err != nil {
		return cellRun{err: err}
	}
	// The boundary hook fires after each detailed window's drain and after
	// each warming window, so the spans between calls alternate.
	t0 := time.Now()
	last, detailed := t0, true
	if cfg.Sample.Enabled() {
		sys.SetBoundaryHook(func(uint64) {
			now := time.Now()
			if detailed {
				ct.detailed += now.Sub(last)
			} else {
				ct.warming += now.Sub(last)
			}
			last, detailed = now, !detailed
		})
	}
	res, err := sys.Run(c.Bench)
	t1 := time.Now()
	ct.run += t1.Sub(t0)
	if !cfg.Sample.Enabled() {
		ct.detailed += t1.Sub(t0)
	}
	if err != nil {
		return cellRun{err: err}
	}
	e := energy.Default().Compute(res.Stats, c.Opt.Protocol != fscoherence.Baseline).Total()
	ct.energy += time.Since(t1)
	return cellRun{cycles: res.Cycles, energy: e, stats: res.Stats, sampled: res.Sampled}
}
