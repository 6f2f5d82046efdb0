package fuzz

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"
)

// Protocols is the default protocol sweep: every backend.
var Protocols = []string{"baseline", "fsdetect", "fslite"}

// CampaignConfig drives a multi-seed fuzzing campaign.
type CampaignConfig struct {
	// StartSeed and Seeds define the seed range [StartSeed, StartSeed+Seeds).
	StartSeed uint64
	Seeds     int

	// Protocols to sweep (nil = all three).
	Protocols []string

	// Opt is passed to every Execute.
	Opt Options

	// ShrinkBudget caps Execute calls per failure during shrinking (0=250).
	ShrinkBudget int

	// Jobs is the number of concurrent executions (0 = GOMAXPROCS, capped
	// at 8). Each simulation is single-threaded and self-contained, so runs
	// parallelize perfectly; results are reported in deterministic order.
	Jobs int

	// Log, when non-nil, receives progress lines.
	Log func(format string, args ...any)

	// Stream, when non-nil, receives one JSONL CaseRecord per executed
	// case as it completes (live order, not deterministic order — the
	// stream is telemetry, the returned CampaignResult is the record of
	// truth). Write errors are dropped.
	Stream io.Writer

	// Skip, when non-nil, filters the task list before execution: cases it
	// reports true for are not run (or counted). Campaign resume uses it to
	// drop (seed, protocol) cases a prior interrupted campaign already
	// completed cleanly.
	Skip func(seed uint64, protocol string) bool
}

// CaseRecord is one line of the campaign's JSONL progress stream.
type CaseRecord struct {
	Seq      int    `json:"seq"`
	Seed     uint64 `json:"seed"`
	Protocol string `json:"protocol"`
	Cycles   uint64 `json:"cycles"`
	// Failure is the failure kind, empty for a passing case.
	Failure string `json:"failure,omitempty"`

	Done      int   `json:"done"`
	Pending   int   `json:"pending"`
	Total     int   `json:"total"`
	Failures  int   `json:"failures"`
	ElapsedMS int64 `json:"elapsed_ms"`
	EtaMS     int64 `json:"eta_ms"`
}

// CaseResult is the outcome of one (seed, protocol) case.
type CaseResult struct {
	Seed     uint64
	Protocol string
	Cycles   uint64
	Failure  *Failure

	// Program is the failing program; Shrunk its minimized repro (set only
	// on failure).
	Program *Program
	Shrunk  *Program
	Runs    int // shrinker executions
}

// CampaignResult summarizes a campaign.
type CampaignResult struct {
	Cases       int
	TotalCycles uint64
	Failures    []CaseResult
}

// Campaign generates and executes Seeds programs per protocol, shrinking
// every failure to a minimal repro. Execution is parallel; the result is
// deterministic regardless of Jobs.
func Campaign(cfg CampaignConfig) *CampaignResult {
	protos := cfg.Protocols
	if len(protos) == 0 {
		protos = Protocols
	}
	type task struct {
		seed  uint64
		proto string
	}
	var tasks []task
	skipped := 0
	for i := 0; i < cfg.Seeds; i++ {
		for _, pr := range protos {
			seed := cfg.StartSeed + uint64(i)
			if cfg.Skip != nil && cfg.Skip(seed, pr) {
				skipped++
				continue
			}
			tasks = append(tasks, task{seed, pr})
		}
	}
	if skipped > 0 && cfg.Log != nil {
		cfg.Log("resume: %d completed case(s) skipped", skipped)
	}

	jobs := cfg.Jobs
	if jobs <= 0 {
		jobs = runtime.GOMAXPROCS(0)
		if jobs > 8 {
			jobs = 8
		}
	}
	results := make([]CaseResult, len(tasks))
	var wg sync.WaitGroup

	// Live telemetry: one JSONL record per completed case, emitted under a
	// mutex in completion order. The campaign's ETA assumes the mean
	// per-case wall time holds for the pending cases across all jobs.
	var streamMu sync.Mutex
	streamSeq, streamFails := 0, 0
	streamStart := time.Now()
	emit := func(r *CaseResult) {
		if cfg.Stream == nil {
			return
		}
		streamMu.Lock()
		defer streamMu.Unlock()
		streamSeq++
		if r.Failure != nil {
			streamFails++
		}
		elapsed := time.Since(streamStart)
		rec := CaseRecord{
			Seq: streamSeq, Seed: r.Seed, Protocol: r.Protocol, Cycles: r.Cycles,
			Done: streamSeq, Pending: len(tasks) - streamSeq, Total: len(tasks),
			Failures: streamFails, ElapsedMS: elapsed.Milliseconds(),
		}
		if r.Failure != nil {
			rec.Failure = r.Failure.Kind
		}
		avg := elapsed / time.Duration(streamSeq)
		rec.EtaMS = (avg * time.Duration(rec.Pending) / time.Duration(jobs)).Milliseconds()
		if b, err := json.Marshal(rec); err == nil {
			cfg.Stream.Write(append(b, '\n'))
		}
	}

	next := make(chan int)
	for w := 0; w < jobs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				t := tasks[i]
				p := Generate(t.seed, t.proto)
				out := Execute(p, cfg.Opt)
				results[i] = CaseResult{
					Seed: t.seed, Protocol: t.proto,
					Cycles: out.Cycles, Failure: out.Failure, Program: p,
				}
				emit(&results[i])
			}
		}()
	}
	for i := range tasks {
		next <- i
	}
	close(next)
	wg.Wait()

	res := &CampaignResult{Cases: len(tasks)}
	for i := range results {
		r := &results[i]
		res.TotalCycles += r.Cycles
		if r.Failure == nil {
			continue
		}
		if cfg.Log != nil {
			cfg.Log("FAIL seed=%d protocol=%s: %s — shrinking...", r.Seed, r.Protocol, r.Failure.Kind)
		}
		sr := Shrink(r.Program, r.Failure.Kind, cfg.Opt, cfg.ShrinkBudget)
		r.Shrunk = sr.Program
		r.Runs = sr.Runs
		res.Failures = append(res.Failures, *r)
	}
	return res
}

// ReproCommand renders the replay command line for a repro file path.
func ReproCommand(path string) string {
	return fmt.Sprintf("go run ./cmd/fsfuzz -replay %s", path)
}
