package fscoherence

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"fscoherence/internal/runner"
)

// Runner is the parallel experiment engine: it fans independent
// (benchmark, Options) cells out across a bounded worker pool, memoizes
// results for its lifetime — a cell shared by several tables (e.g. every
// Baseline reference run) is simulated exactly once — and captures panics
// from a misbehaving configuration as that cell's error instead of killing
// the whole sweep.
//
// Every simulation is a pure function of its (benchmark, Options) cell:
// sim.New builds a fully self-contained System (own *stats.Set, memory,
// controllers and thread closures; workload models use per-closure PRNG
// streams, never package-level state), so concurrent runs cannot observe
// each other and a parallel sweep is bit-for-bit identical to a serial one.
// NewRunner(1) executes cells inline in submission order, reproducing the
// historical serial harness exactly.
type Runner struct {
	eng      *runner.Engine
	defaults Options // machine fields only; see SetDefaults
	timeout  time.Duration

	mu          sync.Mutex
	sampled     []*Result
	onCell      func(bench string, opt Options, d time.Duration, err error)
	stream      io.Writer
	streamStart time.Time
	streamSeq   int
}

// cellKey identifies one simulation cell. Options contains only comparable
// scalar fields, so the struct is a valid map key and two cells collide
// exactly when they would produce identical results.
type cellKey struct {
	Bench string
	Opt   Options
}

// NewRunner returns an engine running at most workers simulations at once;
// workers <= 0 selects runtime.NumCPU().
func NewRunner(workers int) *Runner {
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	r := &Runner{eng: runner.New(workers)}
	r.eng.SetProgress(r.cellDone)
	return r
}

// cellDone reports one executed cell to the progress callback and the
// journal. The engine serializes its calls.
func (r *Runner) cellDone(c runner.Cell) {
	k := c.Key.(cellKey)
	r.mu.Lock()
	fn, w := r.onCell, r.stream
	r.mu.Unlock()
	if fn != nil {
		fn(k.Bench, k.Opt, c.Duration, c.Err)
	}
	if w != nil {
		r.journal(w, k, c)
	}
}

// Workers returns the concurrency bound.
func (r *Runner) Workers() int { return r.eng.Workers() }

// SetDefaults sets the machine defaults that submitted cells leaving them
// zero inherit: Engine, Cores, Topology and Sample. Every other field
// of def is ignored. cmd/fsexp's machine and -sample flags use it to rerun
// entire tables on another engine, a big machine or under interval
// sampling; cells that ran sampled register in SampledCells for the
// estimate report. A cell whose own options cannot sample (OOO cores,
// private L2s, non-inclusive LLC, verification or observability
// attachments) runs fully timed instead, so mixed sweeps still complete.
// SetDefaults returns Validate's error, and changes nothing, when the
// defaults themselves cannot run together (e.g. sampling on the naive
// engine).
func (r *Runner) SetDefaults(def Options) error {
	def = Options{Engine: def.Engine, Cores: def.Cores, Topology: def.Topology, Sample: def.Sample}
	if err := def.Validate(); err != nil {
		return err
	}
	r.defaults = def
	return nil
}

// SampledCells returns every distinct cell that completed as an interval-
// sampled run, in a deterministic order (benchmark, then protocol, then
// variant). Call after Wait.
func (r *Runner) SampledCells() []*Result {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*Result, len(r.sampled))
	copy(out, r.sampled)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Benchmark != out[j].Benchmark {
			return out[i].Benchmark < out[j].Benchmark
		}
		if out[i].Protocol != out[j].Protocol {
			return out[i].Protocol < out[j].Protocol
		}
		return out[i].Variant < out[j].Variant
	})
	return out
}

// SetTimeout gives every cell a wall-clock watchdog (0, the default, disables
// it): a cell still running after d is canceled cooperatively and fails with
// an error wrapping sim.ErrStopped. Cells are deterministic, so a failed cell
// is not retried; a later campaign resuming the journal reruns it from the
// start. cmd/fsexp's -timeout flag uses it so one hung configuration cannot
// stall a campaign.
func (r *Runner) SetTimeout(d time.Duration) { r.timeout = d }

// SetProgress installs a per-cell completion callback (timing report).
// Calls are serialized by the engine.
func (r *Runner) SetProgress(fn func(bench string, opt Options, d time.Duration, err error)) {
	r.mu.Lock()
	r.onCell = fn
	r.mu.Unlock()
}

// Future is a pending simulation cell.
type Future struct {
	bench string
	opt   Options
	h     *runner.Handle
}

// Submit schedules one cell and returns a future. Fields left zero inherit
// the Runner's defaults, and the options are normalized before keying, so
// Options{Scale: 0} and Options{Scale: 1} (and Engine "" and "skip") share a
// cell.
func (r *Runner) Submit(bench string, opt Options) *Future {
	d := r.defaults
	if opt.Engine == "" {
		opt.Engine = d.Engine
	}
	if opt.Cores == 0 {
		opt.Cores = d.Cores
	}
	if opt.Topology == "" {
		opt.Topology = d.Topology
	}
	opt = opt.normalized()
	if opt.Sample == "" && d.Sample != "" {
		sampled := opt
		sampled.Sample = d.Sample
		if sampled.Validate() == nil {
			opt = sampled
		}
	}
	key := cellKey{Bench: bench, Opt: opt}
	h := r.eng.Do(key, func(uint64) (any, error) {
		var cancel func() bool
		if r.timeout > 0 {
			var expired atomic.Bool
			watchdog := time.AfterFunc(r.timeout, func() { expired.Store(true) })
			defer watchdog.Stop()
			cancel = expired.Load
		}
		res, err := run(bench, opt, cancel)
		if err != nil {
			if cancel != nil && cancel() {
				err = fmt.Errorf("timed out after %v: %w", r.timeout, err)
			}
			return nil, err
		}
		if res.Sampled != nil {
			r.mu.Lock()
			r.sampled = append(r.sampled, res)
			r.mu.Unlock()
		}
		return res, nil
	})
	return &Future{bench: bench, opt: opt, h: h}
}

// SubmitBenches schedules one cell per benchmark with the same options.
func (r *Runner) SubmitBenches(benches []string, opt Options) []*Future {
	out := make([]*Future, len(benches))
	for i, b := range benches {
		out[i] = r.Submit(b, opt)
	}
	return out
}

// Run submits one cell and waits for it (memoized like any other cell).
func (r *Runner) Run(bench string, opt Options) (*Result, error) {
	return r.Submit(bench, opt).Result()
}

// MustRun is Run panicking on error — the historical experiment-harness
// contract where a failed reference run is fatal to its table.
func (r *Runner) MustRun(bench string, opt Options) *Result {
	return r.Submit(bench, opt).Must()
}

// Wait blocks until every submitted cell has finished.
func (r *Runner) Wait() { r.eng.Wait() }

// Report returns the engine's counters (cells executed, memo hits, summed
// simulation time). Call after Wait for sweep totals.
func (r *Runner) Report() runner.Report { return r.eng.Report() }

// Result blocks until the cell finishes.
func (f *Future) Result() (*Result, error) {
	v, err := f.h.Wait()
	if err != nil {
		return nil, fmt.Errorf("cell %s/%v: %w", f.bench, f.opt.Protocol, err)
	}
	return v.(*Result), nil
}

// Must blocks and panics if the cell failed. Table builders use it so a
// broken cell aborts only that table; cmd/fsexp recovers the panic and
// continues the sweep with the remaining experiments.
func (f *Future) Must() *Result {
	res, err := f.Result()
	if err != nil {
		panic(err)
	}
	return res
}
