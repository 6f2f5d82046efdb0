// Command fsbench measures the host performance of the fscoherence simulator:
// how long a figure sweep or a big-machine cell takes, and which layer of the
// simulator the time goes to.
//
// It runs one or all of four workloads in a closed loop of reps, checks every
// rep's modelled outputs against pinned goldens, prints every metric by name
// with its unit, and ends with a one-line JSON summary:
//
//	go run ./fsbench [-workload NAME|all] [-seed N] [-seconds S] [-trace 0|1] [-out FILE]
//	go run ./fsbench -compare A.json B.json
//	go run ./fsbench -bless -seed N
//
// README.md in the parent directory documents the workloads, metrics and
// bounds.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"strings"
)

func main() {
	runtime.GOMAXPROCS(procs)
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	fl := flag.NewFlagSet("fsbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	wlName := fl.String("workload", "all", "workload to run: "+strings.Join(names, ", ")+" or all")
	seed := fl.Int64("seed", 1, "workload seed: scales each workload's size by 1+((seed-1) mod 8)/256; seeds 1 and 2 have goldens")
	seconds := fl.Float64("seconds", 0, "run timed reps for this many seconds (0: each workload's default rep count)")
	trace := fl.Int("trace", 1, "1: end with traced reps per workload and report per-layer metrics; 0: end-to-end metrics only")
	out := fl.String("out", "", "write the results JSON to this file")
	compare := fl.Bool("compare", false, "compare two results files given as arguments")
	blessFlag := fl.Bool("bless", false, "rewrite the goldens of -seed from one rep of each workload")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fl.NArg() != 2 {
			fmt.Fprintln(stderr, "fsbench: -compare needs two results files")
			return 2
		}
		worse, err := compareFiles(fl.Arg(0), fl.Arg(1), stdout, stderr)
		if err != nil {
			fmt.Fprintln(stderr, "fsbench:", err)
			return 2
		}
		if worse {
			return 1
		}
		return 0
	}
	if fl.NArg() != 0 || (*trace != 0 && *trace != 1) || *seconds < 0 {
		fl.Usage()
		return 2
	}
	ws := workloads
	if *wlName != "all" {
		w, err := workloadByName(*wlName)
		if err != nil {
			fmt.Fprintln(stderr, "fsbench:", err)
			return 2
		}
		ws = []*workload{w}
	}
	if *blessFlag {
		if err := bless(ws, *seed); err != nil {
			fmt.Fprintln(stderr, "fsbench:", err)
			return 1
		}
		return 0
	}

	o := options{factor: sizeFactor(*seed), seconds: *seconds, trace: *trace == 1, log: stderr}
	runs, err := measure(ws, *seed, o)
	if err != nil {
		fmt.Fprintln(stderr, "fsbench:", err)
		return 1
	}
	res := newResults(runs, *seed, o)
	for _, wr := range res.Workloads {
		if wr.TraceProblem != "" {
			fmt.Fprintf(stderr, "fsbench: %s: %s\n", wr.Name, wr.TraceProblem)
		}
	}
	w := bufio.NewWriter(stdout)
	printResults(w, res)
	if *out != "" {
		if err := writeResults(*out, res); err != nil {
			fmt.Fprintln(stderr, "fsbench:", err)
			return 1
		}
	}
	line, err := json.Marshal(resultLine(res))
	if err != nil {
		fmt.Fprintln(stderr, "fsbench:", err)
		return 1
	}
	fmt.Fprintf(w, "%s\n", line)
	if err := w.Flush(); err != nil {
		fmt.Fprintln(stderr, "fsbench:", err)
		return 1
	}
	return 0
}

// results is the content of a results file.
type results struct {
	Host       host       `json:"host"`
	Seed       int64      `json:"seed"`
	SizeFactor float64    `json:"size_factor"`
	Seconds    float64    `json:"seconds"`
	Trace      bool       `json:"trace"`
	Workloads  []wlResult `json:"workloads"`
}

// host records where a results file was measured; two files compare only if
// their hosts match.
type host struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
}

type wlResult struct {
	Name      string       `json:"name"`
	Params    wlParams     `json:"params"`
	Reps      int          `json:"reps"`
	Golden    string       `json:"golden"`
	Attempted int          `json:"cells_attempted"`
	Failed    int          `json:"cells_failed"`
	Failures  []string     `json:"failures,omitempty"`
	EndToEnd  []dist       `json:"end_to_end"`
	PerLayer  []layerValue `json:"per_layer,omitempty"`

	// TraceReps is the number of traced reps the per-layer metrics average;
	// TraceProblem, when set, says why their profile cannot be trusted.
	TraceReps    int    `json:"trace_reps,omitempty"`
	TraceProblem string `json:"trace_problem,omitempty"`
}

// wlParams are the inputs a workload ran with.
type wlParams struct {
	Cells     int      `json:"cells"`
	Benches   []string `json:"benches"`
	Protocols []string `json:"protocols"`
	Scale     float64  `json:"scale"`
	Cores     int      `json:"cores,omitempty"`
	Topology  string   `json:"topology,omitempty"`
	Engine    string   `json:"engine,omitempty"`
	Shards    int      `json:"shards,omitempty"`
	Sample    string   `json:"sample,omitempty"`
}

type layerValue struct {
	metricSpec
	Value float64 `json:"value"`
}

func newResults(runs []*wlRun, seed int64, o options) *results {
	res := &results{
		Host: host{CPU: cpuModel(), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
			Go: runtime.Version(), OS: runtime.GOOS, Arch: runtime.GOARCH},
		Seed: seed, SizeFactor: o.factor, Seconds: o.seconds, Trace: o.trace,
	}
	for _, r := range runs {
		wr := wlResult{Name: r.w.name, Params: paramsOf(r.cells), Reps: len(r.reps),
			Golden: "invariants", Attempted: r.attempted, Failed: r.failed, Failures: r.failures,
			EndToEnd: r.endToEnd()}
		if r.golden != nil {
			wr.Golden = "golden/" + goldenName(r.w.name, seed)
		}
		if r.trace != nil {
			pl := r.perLayer()
			for _, s := range perLayerSpecs {
				wr.PerLayer = append(wr.PerLayer, layerValue{metricSpec: s, Value: pl[s.Name]})
			}
			wr.TraceReps, wr.TraceProblem = r.trace.reps, r.trace.problem
		}
		res.Workloads = append(res.Workloads, wr)
	}
	return res
}

func paramsOf(cells []cell) wlParams {
	o := cells[0].Opt
	p := wlParams{Cells: len(cells), Scale: o.Scale, Cores: o.Cores, Topology: o.Topology,
		Engine: o.Engine, Shards: o.Shards, Sample: o.Sample}
	for _, c := range cells {
		if !slices.Contains(p.Benches, c.Bench) {
			p.Benches = append(p.Benches, c.Bench)
		}
		if pr := c.Opt.Protocol.String(); !slices.Contains(p.Protocols, pr) {
			p.Protocols = append(p.Protocols, pr)
		}
	}
	return p
}

// cpuModel reads the processor name from /proc/cpuinfo, where there is one.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				return strings.TrimSpace(v)
			}
		}
	}
	return runtime.GOARCH
}

func printResults(w io.Writer, res *results) {
	h := res.Host
	fmt.Fprintf(w, "fsbench  seed %d (size factor %g)  %s, %d CPUs, GOMAXPROCS %d, %s\n",
		res.Seed, res.SizeFactor, h.CPU, h.NProc, h.GOMAXPROCS, h.Go)
	for _, wr := range res.Workloads {
		fmt.Fprintf(w, "\n== %s: %d cells, %d timed reps, %d/%d cells failed, checked against %s\n",
			wr.Name, wr.Params.Cells, wr.Reps, wr.Failed, wr.Attempted, wr.Golden)
		for _, f := range wr.Failures {
			fmt.Fprintf(w, "   FAIL %s\n", f)
		}
		fmt.Fprintf(w, "%-32s %14s %14s %14s %14s %4s  %s\n", "end-to-end", "reported", "median", "q1", "q3", "n", "unit")
		for _, d := range wr.EndToEnd {
			fmt.Fprintf(w, "%-32s %14.6g %14.6g %14.6g %14.6g %4d  %s (%s is better)\n", d.Name, d.value(), d.Median, d.Q1, d.Q3, d.N, d.Unit, d.Better)
		}
		if len(wr.PerLayer) > 0 {
			fmt.Fprintf(w, "%-32s %14s  %s\n", fmt.Sprintf("per-layer (per rep of %d traced)", wr.TraceReps), "value", "unit")
			for _, v := range wr.PerLayer {
				fmt.Fprintf(w, "%-32s %14.6g  %s\n", v.Name, v.Value, v.Unit)
			}
		}
	}
}

func writeResults(path string, res *results) error {
	b, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readResults(path string) (*results, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var res results
	if err := json.Unmarshal(b, &res); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(res.Workloads) == 0 {
		return nil, errors.New(path + ": no workloads")
	}
	return &res, nil
}

// summary is the result line: the last line of standard output.
type summary struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]lineMetric `json:"metrics"`
}

type lineMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine carries the end-to-end metrics of an untraced invocation, or the
// per-layer metrics of a traced one, each under its name in BENCHMARK.json
// (prefixed by "<workload>/" when several workloads ran). It is correct when
// no cell failed and every traced profile can be trusted.
func resultLine(res *results) summary {
	s := summary{Correct: true, Metrics: map[string]lineMetric{}}
	prefix := len(res.Workloads) > 1
	for i := range res.Workloads {
		wr := &res.Workloads[i]
		s.Attempted += wr.Attempted
		s.Failed += wr.Failed
		key := func(name string) string {
			if prefix {
				return wr.Name + "/" + name
			}
			return name
		}
		if res.Trace {
			if wr.TraceProblem != "" {
				s.Correct = false
			}
			for _, v := range wr.PerLayer {
				if !notInResultLine[v.Name] {
					s.Metrics[key(v.Name)] = lineMetric{Value: v.Value, Unit: v.Unit}
				}
			}
			continue
		}
		for _, d := range wr.EndToEnd {
			if !notInResultLine[d.Name] {
				s.Metrics[key(d.Name)] = lineMetric{Value: d.value(), Unit: d.Unit}
			}
		}
	}
	s.Correct = s.Correct && s.Failed == 0
	return s
}
