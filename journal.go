package fscoherence

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"

	"fscoherence/internal/energy"
	"fscoherence/internal/runner"
	"fscoherence/internal/stats"
	"fscoherence/internal/workload"
)

// Campaign journal: the -progress log of a sweep, one JSONL record per
// executed cell. Each record carries the cell, its seed, duration and error,
// the sweep's done/pending/ETA telemetry and aggregated counters, and — for a
// cell that completed and can be rebuilt from JSON — its serialized result.
// A dashboard tails it; an interrupted campaign (crash, SIGKILL, power loss)
// restarts by loading it and priming the engine's memo with the completed
// cells, so only unfinished work reruns. A failed or timed-out cell has no
// result and reruns from the start: the journaled cell is the unit of
// recovery.
//
// The format is truncation-tolerant: each record is one write, synced when
// the log is a file, and the loader skips a torn final line (the crash case)
// instead of failing, so a log written up to the instant of death is always
// usable.

// JournalEntry is one journal record.
type JournalEntry struct {
	// Seq numbers records from 1 in emission order within one campaign.
	Seq   int     `json:"seq"`
	Bench string  `json:"bench"`
	Opt   Options `json:"opt"`
	Seed  uint64  `json:"seed"`
	// DurMS is the cell's execution time in milliseconds; Err is its error
	// text, empty on success.
	DurMS float64 `json:"dur_ms"`
	Err   string  `json:"err,omitempty"`

	// Done counts finished cells (executed + memo hits); Pending is
	// Total - Done, where Total counts all submissions so far. Errors
	// counts failed cells.
	Done    int `json:"done"`
	Pending int `json:"pending"`
	Total   int `json:"total"`
	Errors  int `json:"errors"`

	// ElapsedMS is wall-clock since the journal was attached. EtaMS
	// estimates time to drain the pending cells: pending x mean task time /
	// workers. Zero when nothing is pending.
	ElapsedMS int64 `json:"elapsed_ms"`
	EtaMS     int64 `json:"eta_ms"`

	// Counters is the sweep-wide aggregation of every executed cell's
	// MetricSummary so far.
	Counters map[string]uint64 `json:"counters,omitempty"`

	// Result carries a completed cell's outcome; nil for failed cells and
	// for cells with attachments (journalEligible).
	Result *ResultWire `json:"result,omitempty"`
}

// ResultWire is the serializable subset of Result journaled for completed
// cells — everything a primed cell needs except the attachments (cells with
// Obs/Forensics attachments are not journaled) and the ground truth (cheaply
// rebuilt from the workload at prime time).
type ResultWire struct {
	Benchmark    string            `json:"benchmark"`
	Protocol     Protocol          `json:"protocol"`
	Variant      Variant           `json:"variant"`
	Cycles       uint64            `json:"cycles"`
	Stats        map[string]uint64 `json:"stats"`
	MissFraction float64           `json:"miss_fraction"`
	Energy       float64           `json:"energy"`
	Detections   []Detection       `json:"detections,omitempty"`
	Contended    []Detection       `json:"contended,omitempty"`
	Violations   []string          `json:"violations,omitempty"`
	Sampled      *SampledRun       `json:"sampled,omitempty"`
	Warnings     []string          `json:"warnings,omitempty"`
}

// wireResult converts a Result for journaling.
func wireResult(r *Result) *ResultWire {
	return &ResultWire{
		Benchmark:    r.Benchmark,
		Protocol:     r.Protocol,
		Variant:      r.Variant,
		Cycles:       r.Cycles,
		Stats:        r.Stats.Snapshot(),
		MissFraction: r.MissFraction,
		Energy:       r.Energy,
		Detections:   r.Detections,
		Contended:    r.Contended,
		Violations:   r.Violations,
		Sampled:      r.Sampled,
		Warnings:     r.Warnings,
	}
}

// unwire rebuilds a Result from its journaled form, reconstructing the
// counter set and (deterministically, from the workload registry) the
// ground-truth labels.
func (w *ResultWire) unwire() (*Result, error) {
	st := stats.NewSet()
	for name, v := range w.Stats {
		st.Set(name, v)
	}
	r := &Result{
		Benchmark:    w.Benchmark,
		Protocol:     w.Protocol,
		Variant:      w.Variant,
		Cycles:       w.Cycles,
		Stats:        st,
		MissFraction: w.MissFraction,
		Energy:       w.Energy,
		Detections:   w.Detections,
		Contended:    w.Contended,
		Violations:   w.Violations,
		Sampled:      w.Sampled,
		Warnings:     w.Warnings,
	}
	// Recompute what Run derives rather than trusting the file for it.
	r.Energy = energy.Default().Compute(st, w.Protocol != Baseline).Total()
	return r, nil
}

// LoadJournal reads a journal, skipping blank and torn lines (a crash can
// leave a partial final record; everything before it is intact because each
// record is one synced write). A missing file is an empty campaign, not an
// error.
func LoadJournal(path string) ([]JournalEntry, error) {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("journal: %w", err)
	}
	defer f.Close()
	var out []JournalEntry
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<26)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var e JournalEntry
		if err := json.Unmarshal(line, &e); err != nil {
			continue // torn or foreign line: tolerate, don't fail the resume
		}
		out = append(out, e)
	}
	if err := sc.Err(); err != nil {
		return out, fmt.Errorf("journal: %w", err)
	}
	return out, nil
}

// journalEligible reports whether a cell's result can be journaled: cells
// carrying Obs/Forensics attachments reference live in-memory recorders that
// a later campaign cannot reconstruct, so they always rerun.
func journalEligible(opt Options) bool {
	return opt.Obs == nil && opt.Forensics == nil
}

// SetStream attaches the campaign journal (fsexp -progress): every executed
// cell appends one JournalEntry to w as it finishes, so a dashboard can tail
// it and an interrupted sweep can resume with ResumeJournal. Records are
// written whole under the engine's callback lock, and synced when w is a
// file. Pass nil to detach. Write errors are dropped: telemetry never fails
// a sweep.
func (r *Runner) SetStream(w io.Writer) {
	r.mu.Lock()
	r.stream, r.streamStart, r.streamSeq = w, time.Now(), 0
	r.mu.Unlock()
}

// journal appends the record of one executed cell. Called by the engine,
// serialized, after the cell is counted in its Report.
func (r *Runner) journal(w io.Writer, k cellKey, c runner.Cell) {
	r.mu.Lock()
	r.streamSeq++
	e := JournalEntry{
		Seq:       r.streamSeq,
		Bench:     k.Bench,
		Opt:       k.Opt,
		Seed:      runner.Seed(k),
		DurMS:     float64(c.Duration.Microseconds()) / 1e3,
		ElapsedMS: time.Since(r.streamStart).Milliseconds(),
	}
	r.mu.Unlock()
	if c.Err != nil {
		e.Err = c.Err.Error()
	} else if journalEligible(k.Opt) {
		e.Result = wireResult(c.Val.(*Result))
	}
	rep := r.eng.Report()
	e.Total, e.Done, e.Errors, e.Counters = rep.Submitted, rep.Executed+rep.MemoHits, rep.Errors, rep.Metrics
	if e.Pending = e.Total - e.Done; e.Pending > 0 {
		avg := rep.TaskTime / time.Duration(rep.Executed)
		e.EtaMS = (avg * time.Duration(e.Pending) / time.Duration(r.Workers())).Milliseconds()
	}
	data, err := json.Marshal(e)
	if err != nil {
		return // a non-serializable record is dropped, never fatal mid-sweep
	}
	if _, err := w.Write(append(data, '\n')); err == nil {
		if f, ok := w.(*os.File); ok {
			f.Sync()
		}
	}
}

// ResumeJournal loads a prior campaign's journal and primes the engine's
// memo with every completed cell, so resubmitting the same sweep only
// reruns unfinished work. Returns the number of cells primed. Entries whose
// benchmark no longer exists are skipped.
func (r *Runner) ResumeJournal(path string) (int, error) {
	entries, err := LoadJournal(path)
	if err != nil {
		return 0, err
	}
	primed := 0
	for _, e := range entries {
		if e.Err != "" || e.Result == nil {
			continue
		}
		spec, err := workload.ByName(e.Bench)
		if err != nil {
			continue
		}
		res, err := e.Result.unwire()
		if err != nil {
			continue
		}
		opt := e.Opt.normalized()
		_, _, gt := spec.BuildLabeled(opt.Variant, workload.Scale(opt.Scale), opt.Cores)
		res.GroundTruth = gt
		if r.eng.Prime(cellKey{Bench: e.Bench, Opt: opt}, res) {
			primed++
			if res.Sampled != nil {
				r.mu.Lock()
				r.sampled = append(r.sampled, res)
				r.mu.Unlock()
			}
		}
	}
	return primed, nil
}
