package main

import (
	"embed"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"reflect"

	"fscoherence"
)

// Goldens pin the modelled outputs of seeds 1 and 2: the simulator is
// deterministic, so every rep must reproduce them exactly.
//
//go:embed golden/*.json
var goldenFS embed.FS

// golden is the pinned output of one workload at one seed.
type golden struct {
	Workload string       `json:"workload"`
	Seed     int64        `json:"seed"`
	Cells    []goldenCell `json:"cells"`

	// GeomeanSpeedup maps each protocol other than Baseline to its geometric
	// mean speedup over Baseline across the workload's benchmarks.
	GeomeanSpeedup map[string]float64 `json:"geomean_speedup,omitempty"`
}

type goldenCell struct {
	Bench    string        `json:"bench"`
	Protocol string        `json:"protocol"`
	Cycles   uint64        `json:"cycles"`
	Accesses uint64        `json:"l1d_accesses"`
	Sampled  *goldenSample `json:"sampled,omitempty"`
}

type goldenSample struct {
	Accesses uint64             `json:"accesses"`
	Detailed uint64             `json:"detailed_accesses"`
	Windows  int                `json:"windows"`
	Means    map[string]float64 `json:"estimate_means"`
}

func goldenName(w string, seed int64) string { return fmt.Sprintf("%s-seed%d.json", w, seed) }

// loadGolden returns the golden for w at seed, or nil when none is pinned.
func loadGolden(w string, seed int64) (*golden, error) {
	b, err := goldenFS.ReadFile("golden/" + goldenName(w, seed))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var g golden
	if err := json.Unmarshal(b, &g); err != nil {
		return nil, fmt.Errorf("golden %s: %w", goldenName(w, seed), err)
	}
	return &g, nil
}

// record summarizes a rep's outputs in golden form. Failed cells keep only
// their names.
func record(w string, seed int64, cells []cell, runs []cellRun) *golden {
	g := &golden{Workload: w, Seed: seed}
	base := map[string]uint64{}
	logs := map[string][]float64{}
	for i, c := range cells {
		r := runs[i]
		gc := goldenCell{Bench: c.Bench, Protocol: c.Opt.Protocol.String()}
		if r.err == nil {
			gc.Cycles, gc.Accesses = r.cycles, r.accesses()
			if s := r.sampled; s != nil {
				gc.Sampled = &goldenSample{Accesses: s.Accesses, Detailed: s.Detailed, Windows: s.Windows, Means: map[string]float64{}}
				for name, e := range s.Estimates {
					gc.Sampled.Means[name] = e.Mean
				}
			}
		}
		g.Cells = append(g.Cells, gc)
		if c.Opt.Protocol == fscoherence.Baseline {
			base[c.Bench] = gc.Cycles
		}
	}
	for _, gc := range g.Cells {
		if b := base[gc.Bench]; gc.Protocol != fscoherence.Baseline.String() && b > 0 && gc.Cycles > 0 {
			logs[gc.Protocol] = append(logs[gc.Protocol], math.Log(float64(b)/float64(gc.Cycles)))
		}
	}
	for p, ls := range logs {
		if g.GeomeanSpeedup == nil {
			g.GeomeanSpeedup = map[string]float64{}
		}
		sum := 0.0
		for _, l := range ls {
			sum += l
		}
		g.GeomeanSpeedup[p] = math.Exp(sum / float64(len(ls)))
	}
	return g
}

// check counts the failed cells of a rep: a cell fails on an error, or on a
// mismatch with the golden when one is pinned. Without a golden only the
// invariants hold: no error, and the access target is met.
func check(want *golden, cells []cell, runs []cellRun) (failed int, msgs []string) {
	var got *golden
	if want != nil {
		got = record(want.Workload, want.Seed, cells, runs)
	}
	fail := func(i int, format string, args ...any) {
		failed++
		msgs = append(msgs, fmt.Sprintf("%s/%s: ", cells[i].Bench, cells[i].Opt.Protocol)+fmt.Sprintf(format, args...))
	}
	for i, r := range runs {
		switch {
		case r.err != nil:
			fail(i, "%v", r.err)
		case want == nil && r.accesses() < max(1, cells[i].MinAccesses):
			fail(i, "%d accesses, want at least %d", r.accesses(), max(1, cells[i].MinAccesses))
		case want != nil && (len(want.Cells) != len(cells) || !reflect.DeepEqual(got.Cells[i], want.Cells[i])):
			fail(i, "output differs from golden %s", goldenName(want.Workload, want.Seed))
		}
	}
	if failed == 0 && want != nil && !reflect.DeepEqual(got.GeomeanSpeedup, want.GeomeanSpeedup) {
		for i := range cells {
			fail(i, "geomean speedup %v differs from golden %v", got.GeomeanSpeedup, want.GeomeanSpeedup)
		}
	}
	return failed, msgs
}

// goldenDir finds the golden directory from the two places fsbench is run:
// the bench module or the repository root.
func goldenDir() (string, error) {
	for _, d := range []string{"fsbench/golden", "bench/fsbench/golden"} {
		if st, err := os.Stat(d); err == nil && st.IsDir() {
			return d, nil
		}
	}
	return "", errors.New("no fsbench/golden directory under the working directory")
}

// bless runs one rep of each workload and writes its golden file.
func bless(ws []*workload, seed int64) error {
	dir, err := goldenDir()
	if err != nil {
		return err
	}
	for _, w := range ws {
		cells := w.cells(sizeFactor(seed))
		runs := runProduct(w, cells)
		if failed, msgs := check(nil, cells, runs); failed > 0 {
			return fmt.Errorf("%s: %d failed cells, first: %s", w.name, failed, msgs[0])
		}
		b, err := json.MarshalIndent(record(w.name, seed, cells, runs), "", "  ")
		if err != nil {
			return err
		}
		path := filepath.Join(dir, goldenName(w.name, seed))
		if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintln(os.Stderr, "wrote", path)
	}
	return nil
}
