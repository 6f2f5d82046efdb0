// Command fsexp regenerates the paper's tables and figures (see DESIGN.md
// for the experiment index). With no arguments it runs the three primary
// experiments (Fig 2, Fig 14, Fig 15); -all runs everything; -exp selects a
// single experiment by ID.
//
// Simulations fan out across a worker pool (-j, default all CPUs) with
// results memoized per (benchmark, options) cell, so reference runs shared
// by several tables are simulated once. Every simulation is deterministic,
// so the emitted tables are byte-identical for any -j; -j 1 reproduces the
// historical serial harness exactly.
//
// Usage:
//
//	fsexp                 # primary results
//	fsexp -all            # every experiment
//	fsexp -all -j 8       # fan out on 8 workers
//	fsexp -exp fig17      # one experiment
//	fsexp -all -markdown  # emit EXPERIMENTS.md-style markdown
//	fsexp -all -v         # per-cell timing on stderr
//	fsexp -engine naive   # cycle-stepped reference engine (byte-identical)
//	fsexp -cpuprofile cpu.out -memprofile mem.out  # pprof the sweep
//
// Crash resilience: -journal records every completed cell to a JSONL
// campaign journal; -resume primes them back so an interrupted sweep only
// reruns unfinished work. -timeout/-retries/-backoff supervise each cell (a
// hung or panicking configuration is retried, then recorded as failed
// without killing the campaign), and -checkpoint-dir gives compatible cells
// a warm-state cache to resume mid-run:
//
//	fsexp -all -journal camp.jsonl -resume camp.jsonl -checkpoint-dir .ckpt \
//	      -timeout 10m -retries 2 -backoff 2s
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"fscoherence"
	"fscoherence/cmd/internal/cli"
	"fscoherence/internal/profiling"
	"fscoherence/internal/sim"
	"fscoherence/internal/stats"
)

func main() {
	var (
		all      = flag.Bool("all", false, "run every experiment")
		exp      = flag.String("exp", "", "run a single experiment by ID (fig2, fig13, ...)")
		jobs     = flag.Int("j", runtime.NumCPU(), "max concurrent simulations (1 = serial)")
		verbose  = flag.Bool("v", false, "report each simulation cell's timing on stderr")
		progress = flag.String("progress", "", "stream JSONL progress records (one per cell) to this file; - for stderr")
		markdown = flag.Bool("markdown", false, "emit markdown tables")
		csv      = flag.Bool("csv", false, "emit CSV (artifact format)")
		outDir   = flag.String("out", "", "also write one CSV per experiment into this directory")
		listExp  = flag.Bool("list", false, "list experiment IDs")
		table2   = flag.Bool("config", false, "print the simulated system configuration (Table II)")
		table3   = flag.Bool("benchmarks", false, "print the benchmark list (Table III)")
		trBench  = flag.String("trace-bench", "LR", "benchmark for the instrumented cell of -trace/-metrics")
		trProto  = flag.String("trace-protocol", "fslite", "protocol for the instrumented cell of -trace/-metrics")
		journal  = flag.String("journal", "", "append one JSONL record per completed/failed cell to this campaign journal")
		resume   = flag.String("resume", "", "prime completed cells from this campaign journal (usually the same file as -journal) so only unfinished work reruns")
		timeout  = flag.Duration("timeout", 0, "per-attempt wall-clock watchdog for each cell (0 = none)")
		retries  = flag.Int("retries", 0, "additional attempts after a cell fails, panics or times out")
		backoff  = flag.Duration("backoff", 0, "base retry delay, doubled per attempt with deterministic jitter")
		ckptDir  = flag.String("checkpoint-dir", "", "warm-state cache directory: compatible cells checkpoint into it and auto-resume after a crash")
	)
	fl := cli.Register(cli.Scale | cli.Machine | cli.Sample | cli.Trace | cli.Checkpoint)
	prof := profiling.AddFlags()
	flag.Parse()

	// One engine for the whole invocation: cells shared between tables
	// (e.g. every Baseline reference run) are simulated exactly once. The
	// machine and -sample flags become its defaults.
	eng := fscoherence.NewRunner(*jobs)
	def, err := fl.Options()
	if err != nil {
		fatal(err)
	}
	if err := eng.SetDefaults(def); err != nil {
		fatal(err)
	}
	if err := prof.Start(); err != nil {
		fatal(err)
	}
	defer prof.Stop()

	if *listExp {
		for _, e := range fscoherence.Experiments {
			fmt.Printf("%-10s %s\n", e.ID, e.Note)
		}
		return
	}
	if *table2 {
		printConfig()
		return
	}
	if *table3 {
		printBenchmarks()
		return
	}

	selected := map[string]bool{}
	switch {
	case *exp != "":
		selected[*exp] = true
	case *all:
		for _, e := range fscoherence.Experiments {
			selected[e.ID] = true
		}
	default:
		selected["fig2"], selected["fig14a"], selected["fig14b"], selected["fig15"] = true, true, true, true
	}

	if *timeout > 0 || *retries > 0 || *backoff > 0 {
		eng.SetSupervision(*timeout, *retries, *backoff)
	}
	if *ckptDir != "" {
		every, err := fl.CheckpointInterval()
		if err != nil {
			fatal(err)
		}
		if err := os.MkdirAll(*ckptDir, 0o755); err != nil {
			fatal(err)
		}
		eng.SetCheckpointDir(*ckptDir, every)
	}
	// Resume before attaching the journal: priming reads the prior campaign's
	// records, then new records append to the same file.
	if *resume != "" {
		primed, err := eng.ResumeJournal(*resume)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "[resume: %d completed cell(s) primed from %s]\n", primed, *resume)
	}
	if *journal != "" {
		j, err := fscoherence.OpenJournal(*journal)
		if err != nil {
			fatal(err)
		}
		defer j.Close()
		eng.SetJournal(j)
	}
	if *progress != "" {
		w := os.Stderr
		if *progress != "-" {
			fh, err := os.Create(*progress)
			if err != nil {
				fatal(err)
			}
			defer fh.Close()
			w = fh
		}
		eng.SetStream(w)
	}
	if *verbose {
		eng.SetProgress(func(bench string, opt fscoherence.Options, d time.Duration, err error) {
			status := ""
			if err != nil {
				status = " FAILED"
			}
			fmt.Fprintf(os.Stderr, "[cell %s/%v %v%s]\n", bench, opt.Protocol, d.Round(time.Millisecond), status)
		})
	}

	sweepStart := time.Now()
	ran, failed := 0, 0
	for _, e := range fscoherence.Experiments {
		if !selected[e.ID] {
			continue
		}
		ran++
		start := time.Now()
		t, err := genTable(eng, e.Gen, fl.Scale)
		if err != nil {
			// A broken cell fails only its experiment; the sweep continues.
			failed++
			fmt.Fprintf(os.Stderr, "fsexp: %s failed: %v\n", e.ID, err)
			continue
		}
		if *outDir != "" {
			if err := os.MkdirAll(*outDir, 0o755); err != nil {
				fatal(err)
			}
			path := filepath.Join(*outDir, e.ID+".csv")
			if err := os.WriteFile(path, []byte(t.CSV()), 0o644); err != nil {
				fatal(err)
			}
		}
		switch {
		case *csv:
			fmt.Print(t.CSV())
		case *markdown:
			fmt.Println(t.Markdown())
		default:
			fmt.Println(t.String())
		}
		fmt.Fprintf(os.Stderr, "[%s took %v]\n\n", e.ID, time.Since(start).Round(time.Millisecond))
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "fsexp: no experiment matched %q (use -list)\n", *exp)
		os.Exit(1)
	}

	if fl.Traced() {
		traceCell(eng, *trBench, *trProto, fl)
	}

	eng.Wait()
	printSampledCells(eng)
	rep := eng.Report()
	primed := ""
	if rep.Primed > 0 {
		primed = fmt.Sprintf(", %d primed from journal", rep.Primed)
	}
	fmt.Fprintf(os.Stderr, "[sweep: %d cells simulated, %d served from cache%s, sim time %v, wall %v, -j %d]\n",
		rep.Executed, rep.MemoHits, primed, rep.TaskTime.Round(time.Millisecond),
		time.Since(sweepStart).Round(time.Millisecond), eng.Workers())
	if m := rep.Metrics; len(m) > 0 {
		fmt.Fprintf(os.Stderr, "[sweep metrics: %d runs, %d total cycles (max cell %d), %d detections, %d contended lines]\n",
			m["runs"], m["cycles"], m["cycles.max.peak"], m["detections"], m["contended"])
	}
	if err := prof.Stop(); err != nil {
		fatal(err)
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "fsexp: %d experiment(s) failed\n", failed)
		os.Exit(1)
	}
}

// printSampledCells emits the estimate table for every cell that ran under
// interval sampling: the tables above show the rounded point estimates, this
// section carries the confidence intervals and detail coverage.
func printSampledCells(eng *fscoherence.Runner) {
	cells := eng.SampledCells()
	if len(cells) == 0 {
		return
	}
	fmt.Println("Sampled estimates (95% CI)")
	fmt.Printf("%-6s %-9s %-8s %8s %8s %22s %22s %16s %20s\n",
		"BENCH", "PROTOCOL", "VARIANT", "WINDOWS", "DETAIL%", "CYCLES", "STALL CYCLES", "NET MSGS", "NET BYTES")
	col := func(s *fscoherence.SampledRun, name string) string {
		return s.Estimates[name].String()
	}
	for _, r := range cells {
		s := r.Sampled
		fmt.Printf("%-6s %-9v %-8v %8d %7.2f%% %22s %22s %16s %20s\n",
			r.Benchmark, r.Protocol, r.Variant, s.Windows,
			100*float64(s.Detailed)/float64(s.Accesses),
			col(s, stats.CtrCycles), col(s, stats.CtrStallCycles),
			col(s, stats.CtrNetMessages), col(s, stats.CtrNetBytes))
	}
	fmt.Println()
}

// traceCell runs one extra instrumented cell on the engine and exports its
// trace and metrics. The cell's Options carry the Obs pointer, so it is a
// distinct memo key and always executes (with deterministic results, the
// trace is byte-identical for any -j).
func traceCell(eng *fscoherence.Runner, bench, protocol string, fl *cli.Flags) {
	p, err := fscoherence.ParseProtocol(protocol)
	if err != nil {
		fatal(fmt.Errorf("-trace-protocol: %w", err))
	}
	o, err := fl.Obs()
	if err != nil {
		fatal(err)
	}
	res, err := eng.Run(bench, fscoherence.Options{Protocol: p, Scale: fl.Scale, Obs: o})
	if err != nil {
		fatal(err)
	}
	for _, w := range res.Warnings {
		fmt.Fprintf(os.Stderr, "fsexp: warning: traced %s/%v: %s\n", bench, p, w)
	}
	if err := cli.Export(o, fl.Trace, fl.Metrics); err != nil {
		fatal(err)
	}
}

// genTable runs one table builder, converting a failed cell's panic
// (Future.Must) into an error so the remaining experiments still run.
func genTable(r *fscoherence.Runner, gen func(*fscoherence.Runner, float64) *fscoherence.Table, scale float64) (t *fscoherence.Table, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			err = fmt.Errorf("%v", rec)
		}
	}()
	return gen(r, scale), nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "fsexp:", err)
	os.Exit(1)
}

func printConfig() {
	c := sim.DefaultConfig(fscoherence.FSLite)
	p, fs := c.Params, c.Core
	fmt.Println("Table II — simulated system configuration")
	fmt.Printf("  cores            %d (in-order; %d-wide OOO for the -exp ooo study)\n", p.Cores, c.OOOWidth)
	fmt.Printf("  L1D              %d KB per core, %d-way, %d B lines, %d-cycle data access\n", p.L1Entries*p.BlockSize/1024, p.L1Ways, p.BlockSize, p.L1HitCycles)
	fmt.Printf("  LLC              %d slices, %d-way, inclusive, %d-cycle tag + %d-cycle data\n", p.Slices, p.LLCWays, p.LLCTagCycles, p.LLCDataCycles)
	fmt.Printf("  interconnect     %d-cycle base latency, per-class virtual-channel FIFO\n", p.NetLatency)
	fmt.Printf("  memory           %d-cycle access latency\n", p.MemLatency)
	fmt.Println("  PAM table        per-core, 1 entry per L1D line, R/W bit per byte + SEND_MD")
	fmt.Printf("  SAM table        %d entries per slice, %d-way LRU, per-byte last writer + readers + TS\n", fs.SAMEntries, fs.SAMWays)
	fmt.Println("  directory ext    7-bit FC and IC, PMMC, 2-bit hysteresis counter")
	fmt.Printf("  conflict check   %d cycles per PRV check\n", p.ChkCycles)
	fmt.Printf("  thresholds       tauP = tauR1 = %d, tauR2 = %d\n", fs.TauP, fs.TauR2)
}

func printBenchmarks() {
	fmt.Println("Table III — benchmark applications")
	for _, b := range fscoherence.Benchmarks() {
		fs := "no false sharing"
		if b.FalseSharing {
			fs = "false sharing"
		}
		fmt.Printf("  %-5s %-24s %-14s %d threads, %s\n", b.Name, b.Full, b.Suite, b.Threads, fs)
	}
}
