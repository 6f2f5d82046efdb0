package fscoherence

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"fscoherence/internal/forensics"
	"fscoherence/internal/sim"
)

// Campaign journal tests: a crashed sweep must resume from its journal with
// completed cells primed (not rerun) and primed results indistinguishable
// from fresh ones; failed cells must rerun.

// journalPath returns a fresh journal location.
func journalPath(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "campaign.jsonl")
}

// journalTo attaches a journal file at path to r and returns the file for the
// test to close.
func journalTo(t *testing.T, r *Runner, path string) *os.File {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	r.SetStream(f)
	return f
}

// writeEntries writes entries to path as a journal would.
func writeEntries(t *testing.T, path string, entries ...JournalEntry) {
	t.Helper()
	var b strings.Builder
	for _, e := range entries {
		data, err := json.Marshal(e)
		if err != nil {
			t.Fatal(err)
		}
		b.Write(data)
		b.WriteByte('\n')
	}
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}

// requireByteIdentical asserts two results are indistinguishable.
func requireByteIdentical(t *testing.T, ref, got *Result) {
	t.Helper()
	if got.Cycles != ref.Cycles {
		t.Errorf("cycles: resumed %d, uninterrupted %d", got.Cycles, ref.Cycles)
	}
	refStats, gotStats := ref.Stats.Snapshot(), got.Stats.Snapshot()
	if !reflect.DeepEqual(refStats, gotStats) {
		for k, v := range refStats {
			if gotStats[k] != v {
				t.Errorf("counter %s: resumed %d, uninterrupted %d", k, gotStats[k], v)
			}
		}
		for k, v := range gotStats {
			if _, ok := refStats[k]; !ok {
				t.Errorf("counter %s: resumed has %d, uninterrupted lacks it", k, v)
			}
		}
	}
	if !reflect.DeepEqual(ref.Detections, got.Detections) {
		t.Errorf("detections differ:\nuninterrupted %v\nresumed       %v", ref.Detections, got.Detections)
	}
	if !reflect.DeepEqual(ref.Contended, got.Contended) {
		t.Errorf("contended differ:\nuninterrupted %v\nresumed       %v", ref.Contended, got.Contended)
	}
}

// TestJournalResumePrimesCompletedCells: run a small campaign with a journal,
// then resume it in a fresh Runner — every cell is served from the journal
// and the results match the originals byte for byte.
func TestJournalResumePrimesCompletedCells(t *testing.T) {
	path := journalPath(t)
	opts := []Options{
		{Protocol: Baseline, Scale: testScale},
		{Protocol: FSDetect, Scale: testScale},
	}
	r1 := NewRunner(1)
	f := journalTo(t, r1, path)
	var ref []*Result
	for _, opt := range opts {
		res, err := r1.Run("RC", opt)
		if err != nil {
			t.Fatalf("campaign cell failed: %v", err)
		}
		ref = append(ref, res)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	r2 := NewRunner(1)
	primed, err := r2.ResumeJournal(path)
	if err != nil {
		t.Fatalf("ResumeJournal: %v", err)
	}
	if primed != len(opts) {
		t.Fatalf("primed %d cells, want %d", primed, len(opts))
	}
	for i, opt := range opts {
		res, err := r2.Run("RC", opt)
		if err != nil {
			t.Fatalf("resumed cell failed: %v", err)
		}
		requireByteIdentical(t, ref[i], res)
		if res.Energy != ref[i].Energy {
			t.Errorf("energy: resumed %v, original %v", res.Energy, ref[i].Energy)
		}
		if res.GroundTruth == nil {
			t.Error("resumed cell lost its ground truth")
		}
	}
	r2.Wait()
	rep := r2.Report()
	if rep.Executed != 0 {
		t.Fatalf("resumed campaign executed %d cells, want 0 (all primed)", rep.Executed)
	}
	if rep.Primed != len(opts) {
		t.Fatalf("Report.Primed = %d, want %d", rep.Primed, len(opts))
	}
}

// TestJournalRecordsFailures: a failed cell leaves a record carrying the
// cell, its seed and the error but no result, and is NOT primed on resume —
// it reruns.
func TestJournalRecordsFailures(t *testing.T) {
	path := journalPath(t)
	r := NewRunner(1)
	f := journalTo(t, r, path)
	if _, err := r.Run("NOPE", Options{}); err == nil {
		t.Fatal("unknown benchmark should fail")
	}
	r.Wait()
	f.Close()

	entries, err := LoadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("journal has %d records, want 1", len(entries))
	}
	if e := entries[0]; e.Bench != "NOPE" || e.Seed == 0 || e.Err == "" || e.Result != nil {
		t.Errorf("failure record incomplete or carries a result: %+v", e)
	}

	r2 := NewRunner(1)
	primed, err := r2.ResumeJournal(path)
	if err != nil || primed != 0 {
		t.Fatalf("failed cells must not prime: primed=%d err=%v", primed, err)
	}
	if _, err := r2.Run("NOPE", Options{}); err == nil {
		t.Fatal("the rerun of a failed cell should fail again")
	}
	if rep := r2.Report(); rep.Executed != 1 {
		t.Fatalf("resumed campaign executed %d cells, want the failed one rerun", rep.Executed)
	}
}

// TestJournalTelemetry: every executed cell emits one record carrying the
// sweep's progress (memo hits emit none); the last record of a drained sweep
// reads nothing pending.
func TestJournalTelemetry(t *testing.T) {
	path := journalPath(t)
	r := NewRunner(1)
	f := journalTo(t, r, path)
	opt := Options{Protocol: Baseline, Scale: testScale}
	r.Run("RC", opt)
	r.Run("RC", opt) // memo hit: no record
	r.Run("NOPE", opt)
	r.Wait()
	f.Close()

	recs, err := LoadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("got %d records, want 2 (memo hits must not emit)", len(recs))
	}
	for i, e := range recs {
		if e.Seq != i+1 {
			t.Errorf("record %d: seq=%d, want %d", i, e.Seq, i+1)
		}
		if e.Pending != e.Total-e.Done {
			t.Errorf("record %d: pending=%d, total=%d, done=%d", i, e.Pending, e.Total, e.Done)
		}
	}
	if first := recs[0]; first.Bench != "RC" || first.Counters["runs"] != 1 || first.Result == nil {
		t.Errorf("first record = %+v, want RC with runs=1 and its result", first)
	}
	last := recs[1]
	if last.Err == "" || last.Errors != 1 {
		t.Errorf("error cell not reflected: err=%q errors=%d", last.Err, last.Errors)
	}
	if last.Done != 3 || last.Pending != 0 || last.EtaMS != 0 {
		t.Errorf("final record done=%d pending=%d eta=%d, want 3/0/0", last.Done, last.Pending, last.EtaMS)
	}
}

// TestJournalTruncationTolerant: a torn final line (the record being written
// when the process died) is skipped; every complete record loads.
func TestJournalTruncationTolerant(t *testing.T) {
	path := journalPath(t)
	writeEntries(t, path,
		JournalEntry{Bench: "RC", Seed: 7, Result: &ResultWire{Benchmark: "RC"}},
		JournalEntry{Bench: "HG", Seed: 9, Err: "boom"})

	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"seq":3,"bench":"LU","result":{"cyc`) // torn mid-record
	f.Close()

	entries, err := LoadJournal(path)
	if err != nil {
		t.Fatalf("LoadJournal on a torn file: %v", err)
	}
	if len(entries) != 2 {
		t.Fatalf("loaded %d entries, want the 2 complete ones", len(entries))
	}
	if entries[0].Bench != "RC" || entries[1].Bench != "HG" {
		t.Fatalf("entries = %+v", entries)
	}
}

// TestLoadJournalMissing: a missing journal is an empty campaign.
func TestLoadJournalMissing(t *testing.T) {
	entries, err := LoadJournal(filepath.Join(t.TempDir(), "absent.jsonl"))
	if err != nil || entries != nil {
		t.Fatalf("missing journal: entries=%v err=%v, want nil/nil", entries, err)
	}
}

// TestJournalSkipsAttachmentCells: cells carrying live attachments cannot be
// reconstructed from JSON, so their records carry no result and they always
// rerun.
func TestJournalSkipsAttachmentCells(t *testing.T) {
	path := journalPath(t)
	r := NewRunner(1)
	f := journalTo(t, r, path)
	rec := forensics.New()
	if _, err := r.Run("RC", Options{Protocol: FSDetect, Scale: testScale, Forensics: rec}); err != nil {
		t.Fatalf("forensics cell failed: %v", err)
	}
	r.Wait()
	f.Close()
	entries, err := LoadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Result != nil {
		t.Fatalf("attachment cell's result was journaled: %+v", entries)
	}
	if primed, err := NewRunner(1).ResumeJournal(path); err != nil || primed != 0 {
		t.Fatalf("attachment cell primed: primed=%d err=%v", primed, err)
	}
}

// TestJournalResumeSkipsUnknownBench: records for benchmarks that no longer
// exist are skipped instead of failing the resume.
func TestJournalResumeSkipsUnknownBench(t *testing.T) {
	path := journalPath(t)
	writeEntries(t, path, JournalEntry{Bench: "GONE", Result: &ResultWire{Benchmark: "GONE"}})
	r := NewRunner(1)
	primed, err := r.ResumeJournal(path)
	if err != nil || primed != 0 {
		t.Fatalf("unknown bench: primed=%d err=%v, want 0/nil", primed, err)
	}
}

// TestJournalSampledResume: a sampled cell's estimate report survives the
// journal round-trip and re-registers in SampledCells.
func TestJournalSampledResume(t *testing.T) {
	path := journalPath(t)
	opt := Options{Protocol: FSDetect, Scale: testScale, Sample: "1k:3k"}
	r1 := NewRunner(1)
	f := journalTo(t, r1, path)
	ref, err := r1.Run("RC", opt)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Sampled == nil {
		t.Fatal("expected a sampled run")
	}
	f.Close()

	r2 := NewRunner(1)
	if primed, err := r2.ResumeJournal(path); err != nil || primed != 1 {
		t.Fatalf("primed=%d err=%v", primed, err)
	}
	got, err := r2.Run("RC", opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ref.Sampled, got.Sampled) {
		t.Errorf("sampled report changed over the journal round-trip:\nref %+v\ngot %+v", ref.Sampled, got.Sampled)
	}
	if cells := r2.SampledCells(); len(cells) != 1 {
		t.Fatalf("SampledCells after resume = %d, want 1", len(cells))
	}
}

// TestWatchdogTimeoutResumes drives the per-cell watchdog through a real
// simulation: a timeout far shorter than the cell cancels it with
// sim.ErrStopped, its journal record carries the error and no result, and a
// fresh Runner resuming that journal reruns the cell to the uninterrupted
// result.
func TestWatchdogTimeoutResumes(t *testing.T) {
	path := journalPath(t)
	opt := Options{Protocol: FSLite, Scale: 1} // long enough for the watchdog to land mid-run
	r1 := NewRunner(1)
	r1.SetTimeout(time.Microsecond)
	f := journalTo(t, r1, path)
	_, err := r1.Run("RC", opt)
	f.Close()
	if !errors.Is(err, sim.ErrStopped) || !strings.Contains(err.Error(), "canceled") {
		t.Fatalf("timed-out cell returned %v, want a canceled sim.ErrStopped", err)
	}

	entries, err := LoadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Err == "" || entries[0].Result != nil {
		t.Fatalf("timed-out cell's record = %+v, want its error and no result", entries)
	}

	r2 := NewRunner(1)
	if primed, err := r2.ResumeJournal(path); err != nil || primed != 0 {
		t.Fatalf("timed-out cell primed: primed=%d err=%v", primed, err)
	}
	got, err := r2.Run("RC", opt)
	if err != nil {
		t.Fatalf("rerun of the timed-out cell: %v", err)
	}
	if rep := r2.Report(); rep.Executed != 1 {
		t.Fatalf("resumed campaign executed %d cells, want 1", rep.Executed)
	}
	ref, err := Run("RC", opt)
	if err != nil {
		t.Fatal(err)
	}
	requireByteIdentical(t, ref, got)
}
