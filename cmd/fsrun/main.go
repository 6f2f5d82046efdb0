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
	"fscoherence/cmd/internal/cli"
	"fscoherence/internal/profiling"
	"fscoherence/internal/stats"
)

func main() {
	var (
		bench    = flag.String("bench", "RC", "benchmark code (see -list)")
		protocol = flag.String("protocol", "baseline", "baseline | fsdetect | fslite")
		mode     = flag.String("mode", "", "alias for -protocol")
		jobs     = flag.Int("j", runtime.NumCPU(), "max concurrent simulations for -compare (1 = serial)")
		compare  = flag.Bool("compare", false, "run all three protocols and print speedups")
		verify   = flag.Bool("verify", false, "enable oracle, SWMR and stalled-core verification")
		list     = flag.Bool("list", false, "list available benchmarks")
		full     = flag.Bool("stats", false, "dump all counters")
		counters = flag.Bool("counters", false, "after the run, dump every canonical counter (zeros included) in sorted order")
		ctrTable = flag.Bool("counter-table", false, "print the canonical counter-name documentation table and exit")
	)
	fl := cli.Register(cli.Scale | cli.Variant | cli.Machine | cli.Sample | cli.Trace)
	prof := profiling.AddFlags()
	flag.Parse()
	if *mode != "" {
		*protocol = *mode
	}
	opt, err := fl.Options()
	if err != nil {
		fatal(err)
	}
	if opt.Protocol, err = fscoherence.ParseProtocol(*protocol); err != nil {
		fatal(err)
	}
	opt.Verify = *verify
	if fl.Traced() {
		if opt.Obs, err = fl.Obs(); err != nil {
			fatal(err)
		}
	}
	if err := opt.Validate(); err != nil {
		fatal(err)
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

	if *compare {
		// The three protocol runs are independent cells: fan them out. The
		// observability attachment goes to the cell -protocol/-mode selects.
		eng := fscoherence.NewRunner(*jobs)
		var futs []*fscoherence.Future
		for _, p := range []fscoherence.Protocol{fscoherence.Baseline, fscoherence.FSDetect, fscoherence.FSLite} {
			cell := opt
			cell.Protocol = p
			if p != opt.Protocol {
				cell.Obs = nil
			}
			futs = append(futs, eng.Submit(*bench, cell))
		}
		var rs []*fscoherence.Result
		for _, f := range futs {
			rs = append(rs, collect(f))
		}
		base, fsl := rs[0], rs[2]
		fmt.Printf("benchmark %s (%s layout, scale %.2f)\n\n", *bench, opt.Variant, opt.Scale)
		fmt.Printf("%-10s %12s %10s %10s %12s %14s\n", "PROTOCOL", "CYCLES", "SPEEDUP", "L1D MISS", "NET MSGS", "ENERGY (norm)")
		for _, r := range rs {
			fmt.Printf("%-10v %12d %10.3f %9.2f%% %12d %14.3f\n",
				r.Protocol, r.Cycles, r.Speedup(base), 100*r.MissFraction,
				r.Stats.Get("net.messages"), r.NormalizedEnergy(base))
		}
		printDetections(fsl)
		printSampled(rs)
		if *counters {
			printCounterColumns(rs)
		}
		if err := cli.Export(opt.Obs, fl.Trace, fl.Metrics); err != nil {
			fatal(err)
		}
		return
	}

	r := run(*bench, opt)
	if err := cli.Export(opt.Obs, fl.Trace, fl.Metrics); err != nil {
		fatal(err)
	}
	fmt.Printf("benchmark %s under %v (%s layout)\n", *bench, opt.Protocol, opt.Variant)
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

func run(bench string, opt fscoherence.Options) *fscoherence.Result {
	r, err := fscoherence.Run(bench, opt)
	if err != nil {
		fatal(err)
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

// checked prints the run's warnings and fails on verification violations.
func checked(r *fscoherence.Result) *fscoherence.Result {
	for _, w := range r.Warnings {
		fmt.Fprintln(os.Stderr, "fsrun: warning:", w)
	}
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

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "fsrun:", err)
	os.Exit(1)
}
