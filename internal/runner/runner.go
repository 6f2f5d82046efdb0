// Package runner provides the parallel experiment engine: a bounded
// worker pool that fans out independent, deterministic tasks (simulation
// runs) across GOMAXPROCS-many OS threads with result memoization, panic
// capture and per-cell progress reporting.
//
// The engine is generic over task keys so it carries no dependency on the
// simulator; the root fscoherence package adapts it to (benchmark, Options)
// cells. Design rules, in order:
//
//   - Determinism. A task must be a pure function of its key: the engine
//     derives a per-task seed from the key (FNV-1a), never from wall-clock
//     time or a global RNG, so the same key always observes the same seed
//     regardless of scheduling. Memoization is therefore sound, and a
//     1-worker engine is bit-for-bit equivalent to calling the tasks
//     serially in submission order (it executes them inline in Do).
//   - Isolation. Tasks share nothing through the engine: each runs with its
//     own closure, and the engine publishes results only through the
//     happens-before edge of the entry's done channel.
//   - Robustness. A panicking task is captured (with its stack) and reported
//     as that cell's error; the rest of the sweep keeps running.
package runner

import (
	"fmt"
	"hash/fnv"
	"io"
	"runtime/debug"
	"sync"
	"time"

	"fscoherence/internal/stats"
)

// Task computes one cell. The seed argument is derived deterministically
// from the task key; tasks that need randomness must use it (and nothing
// else) so reruns and memoization stay sound. Pure tasks may ignore it.
type Task func(seed uint64) (any, error)

// MetricSummarizer is implemented by task results that expose headline
// metrics for sweep-level aggregation. The engine folds each executed cell's
// summary into Report.Metrics exactly once (memo hits do not re-fold);
// counters carrying the stats.PeakSuffix merge by maximum, all others sum.
type MetricSummarizer interface {
	MetricSummary() map[string]uint64
}

// Cell describes one finished task, for progress reporting.
type Cell struct {
	Key      any
	Duration time.Duration
	Err      error

	// Attempts is the number of supervised attempts the cell consumed
	// (DoSupervised); 0 for unsupervised tasks.
	Attempts int
}

// Report summarizes an engine's work so far.
type Report struct {
	// Submitted counts Do calls; Executed counts unique tasks actually run
	// (Submitted - Executed cells were served from the memo cache).
	Submitted int
	Executed  int
	MemoHits  int
	Errors    int

	// Primed counts cells preloaded into the memo from a prior campaign's
	// journal (Engine.Prime): submitted hits against them count as MemoHits.
	Primed int

	// TaskTime is the summed wall-clock of executed tasks — with W workers
	// the elapsed time approaches TaskTime / W.
	TaskTime time.Duration

	// Metrics aggregates the MetricSummary of every executed cell whose
	// result implements MetricSummarizer (nil when no cell did).
	Metrics map[string]uint64
}

// Engine is a memoizing bounded worker pool. Construct with New; the zero
// value is not usable.
type Engine struct {
	workers int
	sem     chan struct{}

	mu        sync.Mutex
	entries   map[any]*entry
	submitted int
	hits      int
	executed  int
	errors    int
	primed    int
	taskTime  time.Duration
	metrics   *stats.Set

	wg sync.WaitGroup

	cbMu        sync.Mutex
	onCell      func(Cell)
	stream      io.Writer
	streamStart time.Time
	streamSeq   int
	sup         Supervision
	attemptHook func(key any, attempt int, err error, backoff time.Duration)
}

// entry is one unique task. val, err and dur are written by exactly one
// goroutine before done is closed; readers go through Handle.Wait, so the
// channel close is the only synchronization needed.
type entry struct {
	key      any
	done     chan struct{}
	val      any
	err      error
	dur      time.Duration
	attempts int
}

// Handle is a future for a submitted task.
type Handle struct {
	e *entry
}

// Wait blocks until the task finishes and returns its value and error.
func (h *Handle) Wait() (any, error) {
	<-h.e.done
	return h.e.val, h.e.err
}

// Duration returns the task's execution time (zero for memo hits observed
// before completion; call after Wait).
func (h *Handle) Duration() time.Duration {
	<-h.e.done
	return h.e.dur
}

// New returns an engine running at most workers tasks at once. workers < 1
// is clamped to 1; a 1-worker engine executes tasks inline in Do, in exact
// submission order, reproducing a serial sweep bit-for-bit.
func New(workers int) *Engine {
	if workers < 1 {
		workers = 1
	}
	return &Engine{
		workers: workers,
		sem:     make(chan struct{}, workers),
		entries: make(map[any]*entry),
	}
}

// Workers returns the concurrency bound.
func (e *Engine) Workers() int { return e.workers }

// SetProgress installs a callback invoked once per executed cell (memo hits
// do not re-fire it). Calls are serialized by the engine, so the callback
// need not be safe for concurrent use; it must not call back into the
// engine.
func (e *Engine) SetProgress(fn func(Cell)) {
	e.cbMu.Lock()
	e.onCell = fn
	e.cbMu.Unlock()
}

// Seed returns the deterministic seed the engine hands to the task for key:
// FNV-1a over the key's Go-syntax representation. Exposed for tests and for
// callers that precompute workload streams.
func Seed(key any) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%#v", key)
	return h.Sum64()
}

// Prime preloads a finished result into the memo cache, as if the task for
// key had already executed: later Do calls for the same key are served from
// the memo without running. Campaign resume uses it to re-seed an engine
// from a journal of completed cells. Returns false (and does nothing) if the
// key is already present.
func (e *Engine) Prime(key any, val any) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, ok := e.entries[key]; ok {
		return false
	}
	ent := &entry{key: key, done: make(chan struct{}), val: val}
	close(ent.done)
	e.entries[key] = ent
	e.primed++
	return true
}

// Do submits the task for key, returning a future. If the key was already
// submitted (finished or in flight) the existing cell is returned and fn is
// never called — results are memoized for the engine's lifetime. Keys must
// be comparable and must fully determine the task's result.
func (e *Engine) Do(key any, fn Task) *Handle {
	e.mu.Lock()
	e.submitted++
	if ent, ok := e.entries[key]; ok {
		e.hits++
		e.mu.Unlock()
		return &Handle{ent}
	}
	ent := &entry{key: key, done: make(chan struct{})}
	e.entries[key] = ent
	e.wg.Add(1)
	e.mu.Unlock()

	if e.workers == 1 {
		// Serial engine: run inline so cells execute in exact submission
		// order with no goroutine scheduling in between.
		e.run(ent, fn)
		return &Handle{ent}
	}
	go func() {
		e.sem <- struct{}{}
		defer func() { <-e.sem }()
		e.run(ent, fn)
	}()
	return &Handle{ent}
}

// run executes one entry with panic capture and publishes the result.
func (e *Engine) run(ent *entry, fn Task) {
	defer e.wg.Done()
	start := time.Now()
	func() {
		defer func() {
			if r := recover(); r != nil {
				// The failing cell's key and seed make the report directly
				// reproducible: `fsrun` the key's options with this seed.
				ent.err = fmt.Errorf("runner: task %#v (seed %#x) panicked: %v\n%s", ent.key, Seed(ent.key), r, debug.Stack())
			}
		}()
		ent.val, ent.err = fn(Seed(ent.key))
	}()
	if sr, ok := ent.val.(*supervisedResult); ok {
		ent.val, ent.attempts = sr.val, sr.attempts
	}
	ent.dur = time.Since(start)

	// Count the cell before publishing it, so a Report taken once a handle
	// resolves already includes that cell.
	e.mu.Lock()
	e.executed++
	e.taskTime += ent.dur
	if ent.err != nil {
		e.errors++
	}
	if ms, ok := ent.val.(MetricSummarizer); ok && ent.err == nil {
		if e.metrics == nil {
			e.metrics = stats.NewSet()
		}
		e.metrics.MergeMap(ms.MetricSummary())
	}
	e.mu.Unlock()
	close(ent.done)

	e.cbMu.Lock()
	if e.onCell != nil {
		e.onCell(Cell{Key: ent.key, Duration: ent.dur, Err: ent.err, Attempts: ent.attempts})
	}
	if e.stream != nil {
		e.emitStream(ent)
	}
	e.cbMu.Unlock()
}

// Wait blocks until every submitted task has finished.
func (e *Engine) Wait() { e.wg.Wait() }

// Report returns a snapshot of the engine's counters. Call after Wait for
// totals covering the whole sweep.
func (e *Engine) Report() Report {
	e.mu.Lock()
	defer e.mu.Unlock()
	r := Report{
		Submitted: e.submitted,
		Executed:  e.executed,
		MemoHits:  e.hits,
		Errors:    e.errors,
		Primed:    e.primed,
		TaskTime:  e.taskTime,
	}
	if e.metrics != nil {
		r.Metrics = e.metrics.Snapshot()
	}
	return r
}
