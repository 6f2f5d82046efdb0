// Command fsrun executes one workload model under a chosen protocol and
// prints cycle counts, cache statistics, FSDetect's report and the modelled
// energy. With -compare it runs Baseline, FSDetect and FSLite back to back
// and prints speedups.
//
// With -compare the three protocol runs fan out on the experiment engine
// (-j workers, default all CPUs); results are deterministic for any -j.
//
// Observability: -trace writes the run's event stream as Chrome trace-event
// JSON (open in Perfetto / chrome://tracing), -metrics writes interval
// counter snapshots and histograms as CSV, -trace-filter restricts recorded
// events ("addr=0x10040,core=1,class=net|prv").
//
// Usage:
//
//	fsrun -bench RC -protocol fslite
//	fsrun -bench LR -mode fslite -trace out.json -metrics out.csv
//	fsrun -bench RC -compare
//	fsrun -bench RC -compare -j 3
//	fsrun -bench RC -engine naive               # cycle-stepped reference
//	fsrun -bench RC -cpuprofile cpu.out         # pprof the run
//	fsrun -bench RC -compare -counters          # line-comparable counter dump
//	fsrun -bench RC -checkpoint run.ckpt -checkpoint-every 500k  # crash-resilient run
//	fsrun -bench RC -resume run.ckpt -checkpoint-every 500k      # continue after a crash
//	fsrun -list
//	fsrun -counter-table
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"

	"fscoherence"
	"fscoherence/internal/obs"
	"fscoherence/internal/profiling"
	"fscoherence/internal/sample"
	"fscoherence/internal/stats"
)

func main() {
	var (
		bench    = flag.String("bench", "RC", "benchmark code (see -list)")
		protocol = flag.String("protocol", "baseline", "baseline | fsdetect | fslite")
		mode     = flag.String("mode", "", "alias for -protocol")
		variant  = flag.String("variant", "default", "default | padded | huron")
		scale    = flag.Float64("scale", 1.0, "workload size multiplier")
		jobs     = flag.Int("j", runtime.NumCPU(), "max concurrent simulations for -compare (1 = serial)")
		compare  = flag.Bool("compare", false, "run all three protocols and print speedups")
		verify   = flag.Bool("verify", false, "enable oracle and SWMR verification")
		list     = flag.Bool("list", false, "list available benchmarks")
		full     = flag.Bool("stats", false, "dump all counters")
		traceOut = flag.String("trace", "", "write Chrome trace-event JSON to this file (open in Perfetto)")
		metrics  = flag.String("metrics", "", "write interval metrics CSV to this file")
		filter   = flag.String("trace-filter", "", "restrict traced events: addr=0x...,core=N,class=net|l1|dir|detect|prv|commit|oracle")
		counters = flag.Bool("counters", false, "after the run, dump every canonical counter (zeros included) in sorted order")
		ctrTable = flag.Bool("counter-table", false, "print the canonical counter-name documentation table and exit")
		engine   = flag.String("engine", "skip", "simulation engine: skip (quiescence-skipping, default) | naive (cycle-stepped reference) | parallel (conservative parallel)")
		cores    = flag.Int("cores", 0, "scale the machine to this many cores (0 = Table II 8-core default; up to 256)")
		topology = flag.String("topology", "", "interconnect: flat (default) | ring | mesh")
		shards   = flag.Int("shards", 0, "parallel engine worker count (0 = one per 8 cores)")
		sampled  = flag.String("sample", "", "interval sampling spec detailed:warming in committed accesses (e.g. 50k:950k); timing metrics become estimates with 95% CIs")
		ckpt     = flag.String("checkpoint", "", "write periodic checkpoints to this file (atomic; each boundary's write replaces the last)")
		ckptN    = flag.String("checkpoint-every", "", "checkpoint cadence in committed L1D accesses (e.g. 1m, 500k; default 1m when checkpointing)")
		resume   = flag.String("resume", "", "resume from this checkpoint file; corrupt or mismatched files fall back to a cold run with a warning")
	)
	prof := profiling.AddFlags()
	flag.Parse()
	if *mode != "" {
		*protocol = *mode
	}
	if *engine != "skip" && *engine != "naive" && *engine != "parallel" {
		fatal(fmt.Errorf("unknown -engine %q (want skip, naive or parallel)", *engine))
	}
	if err := prof.Start(); err != nil {
		fatal(err)
	}
	defer prof.Stop()

	if *ctrTable {
		fmt.Printf("| %-24s | %s |\n|%s|%s|\n", "Counter", "Meaning", strings.Repeat("-", 26), strings.Repeat("-", 60))
		for _, c := range stats.Canonical() {
			fmt.Printf("| %-24s | %s |\n", "`"+c.Name+"`", c.Desc)
		}
		return
	}

	if *list {
		fmt.Printf("%-5s %-22s %-12s %-8s %s\n", "CODE", "NAME", "SUITE", "THREADS", "FALSE SHARING")
		for _, b := range fscoherence.Benchmarks() {
			fs := "no"
			if b.FalseSharing {
				fs = "yes"
			}
			fmt.Printf("%-5s %-22s %-12s %-8d %s\n", b.Name, b.Full, b.Suite, b.Threads, fs)
		}
		return
	}

	v, err := parseVariant(*variant)
	if err != nil {
		fatal(err)
	}
	p, err := fscoherence.ParseProtocol(*protocol)
	if err != nil {
		fatal(err)
	}
	o := buildObs(*traceOut, *metrics, *filter)

	var ctl fscoherence.RunControl
	if *ckpt != "" || *ckptN != "" || *resume != "" {
		if *compare {
			fatal(fmt.Errorf("-checkpoint/-resume apply to a single run; drop -compare"))
		}
		ctl.CheckpointPath = *ckpt
		ctl.Resume = *resume
		if *ckptN != "" {
			every, err := sample.ParseCount(*ckptN)
			if err != nil {
				fatal(fmt.Errorf("-checkpoint-every: %w", err))
			}
			ctl.CheckpointEvery = every
		}
	}

	if *compare {
		// The three protocol runs are independent cells: fan them out. The
		// observability attachment goes to the cell -protocol/-mode selects.
		obsFor := func(pr fscoherence.Protocol) *obs.Obs {
			if pr == p {
				return o
			}
			return nil
		}
		eng := fscoherence.NewRunner(*jobs)
		eng.SetEngine(*engine)
		eng.SetMachine(*cores, *topology, *shards)
		eng.SetSample(*sampled)
		baseF := eng.Submit(*bench, fscoherence.Options{Protocol: fscoherence.Baseline, Variant: v, Scale: *scale, Verify: *verify, Obs: obsFor(fscoherence.Baseline)})
		detF := eng.Submit(*bench, fscoherence.Options{Protocol: fscoherence.FSDetect, Variant: v, Scale: *scale, Verify: *verify, Obs: obsFor(fscoherence.FSDetect)})
		fslF := eng.Submit(*bench, fscoherence.Options{Protocol: fscoherence.FSLite, Variant: v, Scale: *scale, Verify: *verify, Obs: obsFor(fscoherence.FSLite)})
		base, det, fsl := collect(baseF), collect(detF), collect(fslF)
		fmt.Printf("benchmark %s (%s layout, scale %.2f)\n\n", *bench, v, *scale)
		fmt.Printf("%-10s %12s %10s %10s %12s %14s\n", "PROTOCOL", "CYCLES", "SPEEDUP", "L1D MISS", "NET MSGS", "ENERGY (norm)")
		for _, r := range []*fscoherence.Result{base, det, fsl} {
			fmt.Printf("%-10v %12d %10.3f %9.2f%% %12d %14.3f\n",
				r.Protocol, r.Cycles, r.Speedup(base), 100*r.MissFraction,
				r.Stats.Get("net.messages"), r.NormalizedEnergy(base))
		}
		printDetections(fsl)
		printSampled([]*fscoherence.Result{base, det, fsl})
		if *counters {
			printCounterColumns([]*fscoherence.Result{base, det, fsl})
		}
		writeObs(o, *traceOut, *metrics)
		return
	}

	r := run(*bench, fscoherence.Options{Protocol: p, Variant: v, Scale: *scale, Verify: *verify, Engine: *engine,
		Cores: *cores, Topology: *topology, Shards: *shards, Obs: o, Sample: *sampled}, ctl)
	writeObs(o, *traceOut, *metrics)
	fmt.Printf("benchmark %s under %v (%s layout)\n", *bench, p, v)
	if s := r.Sampled; s != nil {
		cyc := s.Estimates[stats.CtrCycles]
		fmt.Printf("cycles          %.0f ± %.0f (95%% CI, coverage %.2f%%, %d windows)\n",
			cyc.Mean, cyc.CI95, 100*cyc.Coverage, s.Windows)
	} else {
		fmt.Printf("cycles          %d\n", r.Cycles)
	}
	fmt.Printf("l1d accesses    %d\n", r.Stats.Get("l1d.accesses"))
	fmt.Printf("l1d miss        %.2f%%\n", 100*r.MissFraction)
	fmt.Printf("net messages    %d (%d bytes)\n", r.Stats.Get("net.messages"), r.Stats.Get("net.bytes"))
	fmt.Printf("invalidations   %d, interventions %d\n", r.Stats.Get("dir.invalidations"), r.Stats.Get("dir.interventions"))
	fmt.Printf("privatizations  %d, terminations %d\n", r.Stats.Get("fs.privatizations"), r.Stats.Get("fs.terminations"))
	fmt.Printf("energy          %.0f\n", r.Energy)
	printDetections(r)
	printSampled([]*fscoherence.Result{r})
	if *counters {
		printCounterColumns([]*fscoherence.Result{r})
	}
	if *full {
		fmt.Println("\ncounters:")
		fmt.Print(r.Stats.String())
	}
}

// printSampled dumps the estimate table of every interval-sampled result:
// one row per timing-domain metric with its 95% confidence interval.
// Functionally-accrued counters are exact and do not appear here.
func printSampled(rs []*fscoherence.Result) {
	for _, r := range rs {
		s := r.Sampled
		if s == nil {
			continue
		}
		fmt.Printf("\nsampled estimates under %v (95%% CI; sample %s, %d windows, %d/%d accesses detailed):\n",
			r.Protocol, s.Spec, s.Windows, s.Detailed, s.Accesses)
		names := make([]string, 0, len(s.Estimates))
		for n := range s.Estimates {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			est := s.Estimates[n]
			fmt.Printf("  %-18s %18s  (±%.2f%%)\n", n, est.String(), 100*est.RelCI())
		}
	}
}

// printCounterColumns dumps every canonical counter — zeros included — in
// sorted name order, one column per result. The fixed name set and ordering
// make two dumps line-comparable: `diff` or `paste` aligns counter-for-
// counter across runs, protocols and engines.
func printCounterColumns(rs []*fscoherence.Result) {
	names := make([]string, 0, len(stats.Canonical()))
	for _, c := range stats.Canonical() {
		names = append(names, c.Name)
	}
	sort.Strings(names)
	fmt.Println("\ncounters (canonical, sorted, zeros included):")
	for _, n := range names {
		fmt.Printf("%-24s", n)
		for _, r := range rs {
			fmt.Printf(" %12d", r.Stats.Get(n))
		}
		fmt.Println()
	}
}

// buildObs assembles the observability attachment requested by the -trace /
// -metrics / -trace-filter flags, or nil when neither output is wanted.
func buildObs(traceOut, metricsOut, filterSpec string) *obs.Obs {
	if traceOut == "" && metricsOut == "" {
		return nil
	}
	f, err := obs.ParseFilter(filterSpec, fscoherence.DefaultBlockSize())
	if err != nil {
		fatal(err)
	}
	return obs.New(obs.Config{Filter: f})
}

// writeObs exports the trace and metrics files after a run.
func writeObs(o *obs.Obs, traceOut, metricsOut string) {
	if o == nil {
		return
	}
	if traceOut != "" {
		f, err := os.Create(traceOut)
		if err != nil {
			fatal(err)
		}
		if err := obs.WriteChromeTrace(f, o.Tracer.Events()); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "[trace: %d events -> %s (%d seen, %d dropped); open in Perfetto]\n",
			len(o.Tracer.Events()), traceOut, o.Tracer.Total(), o.Tracer.Dropped())
	}
	if metricsOut != "" {
		f, err := os.Create(metricsOut)
		if err != nil {
			fatal(err)
		}
		if err := o.Metrics.WriteCSV(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "[metrics: %d samples, %d histograms -> %s]\n",
			len(o.Metrics.Samples()), len(o.Metrics.Histograms()), metricsOut)
	}
}

func run(bench string, opt fscoherence.Options, ctl fscoherence.RunControl) *fscoherence.Result {
	r, err := fscoherence.RunControlled(bench, opt, ctl)
	if err != nil {
		fatal(err)
	}
	for _, w := range r.Warnings {
		fmt.Fprintln(os.Stderr, "fsrun: warning:", w)
	}
	return checked(r)
}

// collect waits for a submitted cell and applies the same fatal-error and
// verification policy as a direct run.
func collect(f *fscoherence.Future) *fscoherence.Result {
	r, err := f.Result()
	if err != nil {
		fatal(err)
	}
	return checked(r)
}

func checked(r *fscoherence.Result) *fscoherence.Result {
	if len(r.Violations) > 0 {
		fatal(fmt.Errorf("verification failed: %s", strings.Join(r.Violations, "; ")))
	}
	return r
}

func printDetections(r *fscoherence.Result) {
	if len(r.Detections) == 0 {
		return
	}
	fmt.Printf("\ndetected falsely shared lines (%d):\n", len(r.Detections))
	for _, d := range r.Detections {
		fmt.Printf("  %v  episodes=%d writers=%v readers=%v (first at cycle %d)\n",
			d.Addr, d.Episodes, d.Writers, d.Readers, d.Cycle)
	}
}

func parseVariant(s string) (fscoherence.Variant, error) {
	switch strings.ToLower(s) {
	case "default", "":
		return fscoherence.LayoutDefault, nil
	case "padded", "manual":
		return fscoherence.LayoutPadded, nil
	case "huron":
		return fscoherence.LayoutHuron, nil
	}
	return 0, fmt.Errorf("unknown variant %q", s)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "fsrun:", err)
	os.Exit(1)
}
