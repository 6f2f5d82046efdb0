package fscoherence

import (
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"

	"fscoherence/internal/forensics"
	"fscoherence/internal/obs"
)

// TestForensicsPrecisionRecall is the accuracy acceptance gate: on workloads
// with known ground truth, the detector must find at least 90% of the
// contended falsely-shared lines (recall), and most of what it flags must
// really be falsely shared (precision). BS is deliberately absent — its lock
// pool is mixed true+false sharing, excluded from scoring by construction.
func TestForensicsPrecisionRecall(t *testing.T) {
	for _, bench := range []string{"RC", "uWW", "uRW", "uPH", "LL"} {
		bench := bench
		t.Run(bench, func(t *testing.T) {
			t.Parallel()
			rec := forensics.New()
			res, err := Run(bench, Options{Protocol: FSDetect, Forensics: rec})
			if err != nil {
				t.Fatal(err)
			}
			acc := forensics.Score(rec, res.GroundTruth)
			if acc.Positives == 0 {
				t.Fatalf("%s: no contended falsely-shared lines exercised", bench)
			}
			if acc.Recall < 0.9 {
				t.Errorf("%s: recall %.2f < 0.9 (TP=%d FN=%d of %d positives)",
					bench, acc.Recall, acc.TP, acc.FN, acc.Positives)
			}
			if acc.Precision < 0.9 {
				t.Errorf("%s: precision %.2f < 0.9 (TP=%d FP=%d)",
					bench, acc.Precision, acc.TP, acc.FP)
			}
			if acc.TP > 0 && acc.MeanTTD <= 0 {
				t.Errorf("%s: mean time-to-detection %.0f, want > 0", bench, acc.MeanTTD)
			}
		})
	}
}

// TestForensicsTrueSharingControl: on the true-sharing control workload the
// detector must not flag the shared word, and the ground truth must carry
// the shared label for it.
func TestForensicsTrueSharingControl(t *testing.T) {
	rec := forensics.New()
	res, err := Run("uTS", Options{Protocol: FSDetect, Forensics: rec})
	if err != nil {
		t.Fatal(err)
	}
	acc := forensics.Score(rec, res.GroundTruth)
	if acc.FP != 0 {
		t.Errorf("uTS: %d false positives, want 0", acc.FP)
	}
	if res.GroundTruth.Count(forensics.LabelShared) == 0 {
		t.Error("uTS ground truth has no truly-shared lines")
	}
}

// TestForensicsRepairEfficacy: under FSLite the hammered RC line must be
// privatized, and the recorder's before/after attribution must show the
// invalidation traffic collapsing during the repaired phase.
func TestForensicsRepairEfficacy(t *testing.T) {
	rec := forensics.New()
	if _, err := Run("RC", Options{Protocol: FSLite, Forensics: rec}); err != nil {
		t.Fatal(err)
	}
	var repaired *forensics.Line
	for _, ln := range rec.Lines() {
		if ln.PrvEpisodes > 0 {
			repaired = ln
			break
		}
	}
	if repaired == nil {
		t.Fatal("FSLite run privatized no line")
	}
	if repaired.InvBefore == 0 {
		t.Error("no invalidations recorded before privatization")
	}
	dets, _ := repaired.DetectCycle()
	if dets == 0 {
		t.Error("privatized line has no detect decision in its timeline")
	}
	// The episode begin must also appear on the timeline.
	found := false
	for _, d := range repaired.Timeline {
		if d.Kind == forensics.DecPrvBegin {
			found = true
		}
	}
	if !found {
		t.Error("timeline lacks a prv-begin decision")
	}
	// Byte×core heatmap: the falsely shared line must show at least two
	// cores touching disjoint bytes.
	if cores := repaired.Cores(); len(cores) < 2 {
		t.Errorf("heatmap shows %d cores on the privatized line, want >= 2", len(cores))
	}
}

// TestForensicsOffByDefault: attaching forensics must not change simulated
// timing or counters — the recorder is an observer, not a participant.
func TestForensicsOffByDefault(t *testing.T) {
	plain, err := Run("RC", Options{Protocol: FSLite, Scale: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	rec := forensics.New()
	with, err := Run("RC", Options{Protocol: FSLite, Scale: 0.2, Forensics: rec})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Cycles != with.Cycles {
		t.Fatalf("forensics perturbed the run: %d vs %d cycles", plain.Cycles, with.Cycles)
	}
	// The recorder reads a tracer the plain run does not have; neither may
	// move a counter.
	if ps, ws := plain.Stats.Snapshot(), with.Stats.Snapshot(); !reflect.DeepEqual(ps, ws) {
		for k, v := range ps {
			if ws[k] != v {
				t.Errorf("counter %s: %d plain, %d with forensics", k, v, ws[k])
			}
		}
		for k, v := range ws {
			if _, ok := ps[k]; !ok {
				t.Errorf("counter %s: absent plain, %d with forensics", k, v)
			}
		}
		t.FailNow()
	}
	if len(rec.Lines()) == 0 {
		t.Fatal("recorder attached but empty")
	}
	if plain.Forensics != nil || plain.GroundTruth == nil {
		t.Fatal("plain run: Forensics must be nil, GroundTruth populated")
	}
}

// TestForensicsFromEventStream: the flight recorder is a pure function of
// the run's event stream. A fresh recorder fed the complete stream, as an
// unfiltered ring kept it, must equal the recorder that watched the run live; and
// the record must not depend on what the run's own Obs attachment filters
// or keeps.
func TestForensicsFromEventStream(t *testing.T) {
	for _, c := range []struct {
		bench string
		mode  Protocol
	}{{"RC", FSLite}, {"LR", FSDetect}} {
		t.Run(c.bench, func(t *testing.T) {
			opt := Options{Protocol: c.mode, Scale: 0.25}
			record := func(o *obs.Obs) *forensics.Recorder {
				rec := forensics.New()
				opt := opt
				opt.Obs, opt.Forensics = o, rec
				if _, err := Run(c.bench, opt); err != nil {
					t.Fatal(err)
				}
				return rec
			}
			alone := record(nil)
			want := renderRecord(alone)

			// An unfiltered ring sized for the run keeps its whole stream.
			all := obs.New(obs.Config{TraceCapacity: 1 << 17, Filter: obs.Filter{Kinds: ^obs.KindMask(0)}})
			live := record(all)
			if n := all.Tracer.Dropped(); n != 0 {
				t.Fatalf("the ring dropped %d events; size it for the run", n)
			}
			replay := forensics.New()
			replay.Begin(live.BlockSize())
			for _, e := range all.Tracer.Events() {
				replay.Record(e)
			}
			if got := renderRecord(replay); got != want {
				t.Error("a recorder fed the collected event stream differs from the live one")
			}
			if got := renderRecord(live); got != want {
				t.Error("collecting the full stream changed the record")
			}
			// The caller's tracer outlives the run; the recorder must not.
			all.Tracer.Emit(obs.Event{Kind: obs.KindCommit, Core: 0, Addr: 0x40, Name: "store", Arg2: 8})
			if renderRecord(live) != want {
				t.Error("the recorder still reads the tracer after its run")
			}

			detectOnly := obs.New(obs.Config{Filter: obs.Filter{Kinds: obs.Mask(obs.KindDetect, obs.KindContended)}})
			if renderRecord(record(detectOnly)) != want {
				t.Error("a detector-only trace filter changed the record")
			}
			if renderRecord(record(obs.New(obs.Config{TraceCapacity: -1}))) != want {
				t.Error("a ring-less Obs changed the record")
			}
		})
	}
}

// goldenForensics pins the flight record of four workloads under both
// detection protocols.
const goldenForensics = "testdata/forensics-scale0.25.golden"

// renderRecord renders every recorded line of rec as text: access counts and
// bounds, the repair-efficacy splits, privatization summary, readers and
// writers, the decision timeline and each core's nonzero byte-heat entries.
func renderRecord(rec *forensics.Recorder) string {
	var b strings.Builder
	for _, ln := range rec.Lines() {
		fmt.Fprintf(&b, "%v r=%d w=%d cyc=[%d,%d] inv=%d/%d miss=%d/%d misscyc=%d/%d prv=%d@%d readers=%v writers=%v\n",
			ln.Addr, ln.Reads, ln.Writes, ln.FirstCycle, ln.LastCycle,
			ln.InvBefore, ln.InvAfter, ln.MissBefore, ln.MissAfter,
			ln.MissCyclesBefore, ln.MissCyclesAfter, ln.PrvEpisodes, ln.PrvCycle,
			ln.Readers(), ln.Writers())
		for _, d := range ln.Timeline {
			fmt.Fprintf(&b, "  @%d %v core=%d cause=%q arg=%d\n", d.Cycle, d.Kind, d.Core, d.Cause, d.Arg)
		}
		for _, c := range ln.Cores() {
			fmt.Fprintf(&b, "  heat c%d:", c)
			for off, n := range ln.Heat(c) {
				if n != 0 {
					fmt.Fprintf(&b, " %d:%d", off, n)
				}
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// TestEngineForensicsRecord pins the flight recorder's full output — every
// line's counts, splits, timeline and heat rows — for RC, BS, LL and LR under
// FSDetect and FSLite, and requires the naive and skip engines to produce
// the same record. Regenerate with go test -run TestEngineForensicsRecord
// -update after an intended change to the recorder or the modelled run.
func TestEngineForensicsRecord(t *testing.T) {
	var b strings.Builder
	for _, bench := range []string{"RC", "BS", "LL", "LR"} {
		for _, mode := range []Protocol{FSDetect, FSLite} {
			var naive string
			for _, engine := range []string{"naive", "skip"} {
				rec := forensics.New()
				if _, err := Run(bench, Options{Protocol: mode, Scale: 0.25, Engine: engine, Forensics: rec}); err != nil {
					t.Fatal(err)
				}
				got := renderRecord(rec)
				if engine == "naive" {
					naive = got
				} else if got != naive {
					t.Fatalf("%s %v: flight record differs between naive and skip engines", bench, mode)
				}
			}
			fmt.Fprintf(&b, "# %s %v\n%s", bench, mode, naive)
		}
	}
	got := b.String()
	if *updateGolden {
		if err := os.WriteFile(goldenForensics, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenForensics)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("%s line %d:\n got: %s\nwant: %s", goldenForensics, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("%s: %d lines, want %d", goldenForensics, len(gl), len(wl))
	}
}
