package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"fscoherence"
)

// tinyFactor shrinks every workload so that the smoke tests run in seconds.
const tinyFactor = 0.02

func TestWorkloadsRunTiny(t *testing.T) {
	for _, w := range workloads {
		cells := w.cells(tinyFactor)
		if failed, msgs := check(nil, cells, runProduct(w, cells)); failed > 0 {
			t.Errorf("%s: %d cells failed: %v", w.name, failed, msgs)
		}
	}
}

// TestAssembledMatchesRun pins the traced path to the product path: a cell
// assembled from the layers' own calls must reproduce fscoherence.Run
// exactly.
func TestAssembledMatchesRun(t *testing.T) {
	for _, w := range workloads {
		cells := w.cells(tinyFactor)
		c := cells[len(cells)-1]
		want, err := fscoherence.Run(c.Bench, c.Opt)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		got := runAssembled(c, &callTimes{})
		if got.err != nil {
			t.Fatalf("%s: %v", w.name, got.err)
		}
		if got.cycles != want.Cycles || got.energy != want.Energy {
			t.Errorf("%s: assembled cycles %d energy %v, Run gives %d and %v", w.name, got.cycles, got.energy, want.Cycles, want.Energy)
		}
		if !reflect.DeepEqual(got.stats.Snapshot(), want.Stats.Snapshot()) {
			t.Errorf("%s: assembled stats snapshot differs from Run's", w.name)
		}
		if !reflect.DeepEqual(got.sampled, want.Sampled) {
			t.Errorf("%s: assembled sampling report %+v, Run gives %+v", w.name, got.sampled, want.Sampled)
		}
	}
}

// resultLineSpecs returns the specs of the metrics the result line carries.
func resultLineSpecs(specs []metricSpec) []metricSpec {
	var out []metricSpec
	for _, s := range specs {
		if !notInResultLine[s.Name] {
			out = append(out, s)
		}
	}
	return out
}

type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

// TestResultLineMatchesBenchmarkJSON runs a small traced measurement and
// checks that the result line carries exactly the metrics BENCHMARK.json
// declares, and that the layer self times partition the traced CPU time.
func TestResultLineMatchesBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl benchmarkJSON
	if err := json.Unmarshal(b, &decl); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range decl.Workloads {
		names = append(names, w.Name)
	}
	for i, w := range workloads {
		if i >= len(names) || names[i] != w.name {
			t.Errorf("BENCHMARK.json workloads %v, want %s at %d", names, w.name, i)
		}
	}
	if want := resultLineSpecs(endToEndSpecs); !reflect.DeepEqual(decl.EndToEnd, want) {
		t.Errorf("BENCHMARK.json end_to_end\n%+v\nwant\n%+v", decl.EndToEnd, want)
	}
	if want := resultLineSpecs(perLayerSpecs); !reflect.DeepEqual(decl.PerLayer, want) {
		t.Errorf("BENCHMARK.json per_layer\n%+v\nwant\n%+v", decl.PerLayer, want)
	}

	// A budget this small runs one timed rep.
	w, _ := workloadByName("mesh64")
	o := options{factor: tinyFactor, seconds: 1e-3, trace: true, log: io.Discard}
	runs, err := measure([]*workload{w}, 3, o)
	if err != nil {
		t.Fatal(err)
	}
	res := newResults(runs, 3, o)
	wr := res.Workloads[0]
	if wr.TraceProblem != "" {
		t.Error(wr.TraceProblem)
	}
	var self float64
	for _, v := range wr.PerLayer {
		if strings.HasSuffix(v.Name, ".self_s") || v.Name == "runtime.bg_s" {
			self += v.Value
		}
	}
	if want := runs[0].trace.cpu / float64(wr.TraceReps); math.Abs(self-want) > 1e-9 {
		t.Errorf("layer self times sum to %v s per rep, want the traced CPU time %v s", self, want)
	}
	for _, c := range []struct {
		trace bool
		want  []metricSpec
	}{{false, decl.EndToEnd}, {true, decl.PerLayer}} {
		res.Trace = c.trace
		line := resultLine(res)
		if !line.Correct || line.Failed != 0 || line.Attempted == 0 {
			t.Errorf("trace=%v: result line %+v", c.trace, line)
		}
		var got, want []string
		for name := range line.Metrics {
			got = append(got, name)
		}
		for _, s := range c.want {
			want = append(want, s.Name)
		}
		sort.Strings(got)
		sort.Strings(want)
		if !slices.Equal(got, want) {
			t.Errorf("trace=%v: result line metrics %v, BENCHMARK.json declares %v", c.trace, got, want)
		}
	}
}

func TestFoldTraces(t *testing.T) {
	f, err := os.Open("testdata/traces.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	p, err := foldTraces(f)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"coherence.l1":     0.04, // (*L1) directly, and under a helper and a spec frame
		"coherence.dir":    0.02,
		"coherence.warmer": 0.01,
		"core":             0.01,
		"cpu":              0.03, // including a coroutine switch
		"sim":              0.02, // including the sampled loop's estimator
		"runner":           0.01,
		"workload":         0.01,
		bgLayer:            0.03, // GC worker, scheduler, and fsbench's own frames
	}
	if len(p.Self) != len(want) {
		t.Errorf("layers %v, want %v", p.Self, want)
	}
	for l, v := range want {
		if math.Abs(p.Self[l]-v) > 1e-9 {
			t.Errorf("%s: %v s, want %v", l, p.Self[l], v)
		}
	}
	for _, c := range []struct {
		name      string
		got, want float64
	}{{"total", p.Total, 0.18}, {"header", p.Header, 0.18}, {"coro", p.Coro, 0.01}} {
		if math.Abs(c.got-c.want) > 1e-9 {
			t.Errorf("%s: %v s, want %v", c.name, c.got, c.want)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64 // statistics.quantiles(xs, n=4)
	}{
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{4}, [3]float64{4, 4, 4}},
	} {
		q1, med, q3 := quartiles(c.xs)
		if got := [3]float64{q1, med, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestVerdict(t *testing.T) {
	lower := metricSpec{Name: "wall_s", Better: "lower", Bound: 0.10}
	d := func(spec metricSpec, xs ...float64) dist { return newDist(spec, xs) }
	for _, c := range []struct {
		name string
		a, b dist
		want string
	}{
		{"same", d(lower, 1, 1.01, 0.99), d(lower, 1, 1.02, 0.98), "unchanged"},
		{"slower", d(lower, 1, 1.01, 0.99), d(lower, 1.2, 1.21, 1.19), "worse"},
		{"faster", d(lower, 1, 1.01, 0.99), d(lower, 0.8, 0.81, 0.79), "better"},
		{"noisy", d(lower, 1, 0.7, 1.3, 0.8, 1.2), d(lower, 1.1, 0.8, 1.4, 0.9, 1.3), "unresolved"},
		{"noisy but separated", d(lower, 1, 0.85, 1.15, 0.9, 1.1), d(lower, 1.5, 1.35, 1.65, 1.4, 1.6), "worse"},
		{"higher is better", d(metricSpec{Better: "higher", Bound: 0.1}, 10, 10.1), d(metricSpec{Better: "higher", Bound: 0.1}, 8, 8.1), "worse"},
		{"any rise in failures", d(metricSpec{Better: "lower"}, 0), d(metricSpec{Better: "lower"}, 0.01), "worse"},
		{"no failures", d(metricSpec{Better: "lower"}, 0), d(metricSpec{Better: "lower"}, 0), "unchanged"},
	} {
		if got, _ := verdict(c.a, c.b); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}
