package fscoherence

import (
	"flag"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"fscoherence/internal/stats"
)

// TestRunnerDeterminism is the engine's core guarantee: the same
// (benchmark, Options) cell run twice concurrently (on separate engines, so
// memoization cannot serve one from the other) and once serially yields
// identical Result stats — cycles, misses and every per-protocol counter.
func TestRunnerDeterminism(t *testing.T) {
	cells := []struct {
		bench string
		opt   Options
	}{
		{"LT", Options{Protocol: FSLite, Scale: testScale}},
		{"RC", Options{Protocol: FSDetect, Scale: testScale}},
		{"LL", Options{Protocol: Baseline, Scale: testScale}},
	}
	serial := NewRunner(1)
	parA := NewRunner(4)
	parB := NewRunner(4)

	type outcome struct {
		ref  *Result
		a, b *Future
	}
	var outs []outcome
	// Submit every cell to both parallel engines first so the concurrent
	// copies genuinely overlap, then run the serial references.
	for _, c := range cells {
		outs = append(outs, outcome{a: parA.Submit(c.bench, c.opt), b: parB.Submit(c.bench, c.opt)})
	}
	for i, c := range cells {
		outs[i].ref = serial.MustRun(c.bench, c.opt)
	}
	for i, c := range cells {
		ra, rb := outs[i].a.Must(), outs[i].b.Must()
		ref := outs[i].ref
		for _, got := range []*Result{ra, rb} {
			if got.Cycles != ref.Cycles {
				t.Fatalf("%s/%v: cycles %d (concurrent) vs %d (serial)", c.bench, c.opt.Protocol, got.Cycles, ref.Cycles)
			}
			if got.MissFraction != ref.MissFraction {
				t.Fatalf("%s/%v: miss fraction diverged", c.bench, c.opt.Protocol)
			}
			if !reflect.DeepEqual(got.Stats.Snapshot(), ref.Stats.Snapshot()) {
				t.Fatalf("%s/%v: counter sets diverged between concurrent and serial runs", c.bench, c.opt.Protocol)
			}
		}
		// Spot-check the per-protocol counters the tables consume.
		for _, ctr := range []string{stats.CtrFSPrivatized, stats.CtrFSTerminations, stats.CtrNetMessages, stats.CtrNetBytes} {
			if ra.Stats.Get(ctr) != ref.Stats.Get(ctr) {
				t.Fatalf("%s/%v: %s = %d vs %d", c.bench, c.opt.Protocol, ctr, ra.Stats.Get(ctr), ref.Stats.Get(ctr))
			}
		}
	}
}

// TestGoldenTablesSerialVsParallel asserts the acceptance criterion
// directly: Fig 13- and Fig 14-style tables rendered from a 1-worker engine
// and an 8-worker engine are byte-identical.
func TestGoldenTablesSerialVsParallel(t *testing.T) {
	builders := []struct {
		name string
		gen  func(*Runner, float64) *Table
	}{
		{"fig13", fig13.build},
		{"fig14a", Fig14Speedup},
	}
	serial := NewRunner(1)
	parallel := NewRunner(8)
	for _, b := range builders {
		want := b.gen(serial, testScale)
		got := b.gen(parallel, testScale)
		if got.CSV() != want.CSV() {
			t.Fatalf("%s: -j 8 CSV differs from -j 1:\n--- j1 ---\n%s--- j8 ---\n%s", b.name, want.CSV(), got.CSV())
		}
		if got.String() != want.String() || got.Markdown() != want.Markdown() {
			t.Fatalf("%s: rendered table differs between -j 1 and -j 8", b.name)
		}
	}
}

var updateGolden = flag.Bool("update", false, "rewrite the golden files under testdata from the current simulator")

// goldenFigures pins every Experiments table at this scale.
const goldenFigures = "testdata/figures-scale0.25.csv"

// TestGoldenFigureTables byte-compares every reproduced table against the
// checked-in CSV, so a shift in any modelled figure (a geomean moving by a
// fraction of a percent included) fails tier-1. After an intended change to
// the modelled results, rerun with -update and review the diff.
func TestGoldenFigureTables(t *testing.T) {
	r := NewRunner(2)
	var b strings.Builder
	for _, e := range Experiments {
		b.WriteString("# " + e.ID + "\n")
		b.WriteString(e.Gen(r, 0.25).CSV())
		b.WriteByte('\n')
	}
	got := b.String()
	if *updateGolden {
		if err := os.WriteFile(goldenFigures, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenFigures)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Fatalf("figure tables differ from %s at line %d:\n got: %s\nwant: %s", goldenFigures, i+1, g, w)
			}
		}
	}
}

// TestRunnerMemoization: a cell shared by several tables simulates once.
func TestRunnerMemoization(t *testing.T) {
	r := NewRunner(2)
	a := r.MustRun("LL", Options{Protocol: Baseline, Scale: testScale})
	b := r.MustRun("LL", Options{Protocol: Baseline, Scale: testScale})
	if a != b {
		t.Fatal("identical cells returned distinct results (memo miss)")
	}
	// Scale 0 normalizes to 1, so those two spellings share a cell too.
	c := r.Submit("LL", Options{Protocol: Baseline})
	d := r.Submit("LL", Options{Protocol: Baseline, Scale: 1})
	if c.Must() != d.Must() {
		t.Fatal("Scale 0 and Scale 1 did not share a cell")
	}
	rep := r.Report()
	if rep.Executed != 2 || rep.MemoHits != 2 {
		t.Fatalf("report = %+v, want 2 executed / 2 memo hits", rep)
	}
	// Shards is ignored, so two submissions differing only in it simulate
	// once: the progress callback fires once per executed cell.
	executed := 0
	r.SetProgress(func(string, Options, time.Duration, error) { executed++ })
	e := r.Submit("LL", Options{Protocol: FSLite, Scale: testScale, Shards: 2})
	f := r.Submit("LL", Options{Protocol: FSLite, Scale: testScale, Shards: 4})
	r.Wait()
	if e.Must() != f.Must() || executed != 1 {
		t.Fatalf("cells differing only in Shards: %d executed, shared result %v; want 1 and true", executed, e.Must() == f.Must())
	}
}

// TestRunnerErrorIsolation: a failing cell reports an error on its future
// without disturbing other cells in flight.
func TestRunnerErrorIsolation(t *testing.T) {
	r := NewRunner(2)
	bad := r.Submit("NOPE", Options{Protocol: Baseline})
	good := r.Submit("LL", Options{Protocol: Baseline, Scale: testScale})
	if _, err := bad.Result(); err == nil || !strings.Contains(err.Error(), "NOPE") {
		t.Fatalf("bad cell error = %v", err)
	}
	if _, err := good.Result(); err != nil {
		t.Fatalf("good cell poisoned by bad cell: %v", err)
	}
	if rep := r.Report(); rep.Errors != 1 {
		t.Fatalf("errors = %d, want 1", rep.Errors)
	}
}

// TestRunnerConcurrentSubmitters drives one shared engine from many
// goroutines (the -race tier-1 step exercises this path for data races).
func TestRunnerConcurrentSubmitters(t *testing.T) {
	r := NewRunner(4)
	benches := []string{"LL", "LT", "BS", "SM"}
	var wg sync.WaitGroup
	results := make([]*Result, len(benches)*2)
	for i, b := range benches {
		for j, p := range []Protocol{Baseline, FSLite} {
			i, j, b, p := i, j, b, p
			wg.Add(1)
			go func() {
				defer wg.Done()
				results[i*2+j] = r.MustRun(b, Options{Protocol: p, Scale: testScale})
			}()
		}
	}
	wg.Wait()
	for i, res := range results {
		if res == nil || res.Cycles == 0 {
			t.Fatalf("slot %d: missing or empty result", i)
		}
	}
}
