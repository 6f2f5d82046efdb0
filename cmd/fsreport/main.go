// Command fsreport runs FSDetect on a workload and prints a detailed
// false-sharing report: the detected lines, the cores involved, episode
// counts and the supporting protocol statistics — the "detector as a
// diagnostics tool" use case of §II. The JSON schema includes per-line
// detection timelines and the L1D miss-latency histogram, both sourced from
// the unified observability layer. -trace and -metrics export the FSDetect
// run, whose tracer keeps detector events only unless -trace-filter names
// others.
//
// Usage:
//
//	fsreport -bench LR
//	fsreport -bench LR -json
//	fsreport -bench LR -trace out.json -metrics out.csv
//	fsreport -bench RC -html report.html
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"fscoherence"
	"fscoherence/cmd/internal/cli"
	"fscoherence/internal/forensics"
)

func main() {
	var (
		bench   = flag.String("bench", "RC", "benchmark code (fsrun -list shows all)")
		asJSON  = flag.Bool("json", false, "emit machine-readable JSON")
		htmlOut = flag.String("html", "", "write a self-contained HTML forensics report (heatmaps, timelines, accuracy) to this file")
	)
	fl := cli.Register(cli.Scale | cli.Variant | cli.Sample | cli.Trace)
	flag.Parse()

	opt, err := fl.Options()
	if err != nil {
		fatal(err)
	}
	base, det := opt, opt
	base.Protocol, det.Protocol = fscoherence.Baseline, fscoherence.FSDetect
	// The FSDetect run records detector events for the line timelines,
	// unless it is sampled (warming emits no events) and nothing asked for
	// them; -trace-filter overrides what it records.
	switch {
	case fl.Filter != "":
		if det.Obs, err = fl.Obs(); err != nil {
			fatal(err)
		}
	case fl.Traced() || opt.Sample == "":
		det.Obs = detectionObs()
	}
	// The HTML detail run: FSLite with the flight recorder attached.
	detail := opt
	detail.Protocol, detail.Forensics = fscoherence.FSLite, forensics.New()
	runs := []fscoherence.Options{base, det}
	if *htmlOut != "" {
		runs = append(runs, detail)
	}
	for _, o := range runs {
		if err := o.Validate(); err != nil {
			fatal(err)
		}
	}

	baseRes, err := fscoherence.Run(*bench, base)
	if err != nil {
		fatal(err)
	}
	detRes, err := fscoherence.Run(*bench, det)
	if err != nil {
		fatal(err)
	}
	rep := buildReport(*bench, baseRes, detRes)
	if err := cli.Export(det.Obs, fl.Trace, fl.Metrics); err != nil {
		fatal(err)
	}

	if *htmlOut != "" {
		data, err := buildHTMLData(*bench, fl.Variant, detail, rep)
		if err != nil {
			fatal(err)
		}
		f, err := os.Create(*htmlOut)
		if err != nil {
			fatal(err)
		}
		if err := writeHTML(f, data); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "[html report: %d detail lines, %d accuracy rows -> %s]\n",
			len(data.Lines), len(data.Accuracy), *htmlOut)
	}

	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fatal(err)
		}
		return
	}

	fmt.Printf("FSDetect report for %s (%s layout)\n", rep.Benchmark, fl.Variant)
	if s := rep.Sampled; s != nil {
		cyc := s.Estimates["sim.cycles"]
		fmt.Printf("  run length          %.0f ± %.0f cycles (95%% CI; sampled %s, %d windows, %.2f%% detail; detection overhead %.2f%%)\n",
			cyc.Mean, cyc.CI95, s.Spec, s.Windows, 100*float64(s.Detailed)/float64(s.Accesses), rep.OverheadPct)
	} else {
		fmt.Printf("  run length          %d cycles (detection overhead %.2f%%)\n", rep.Cycles, rep.OverheadPct)
	}
	fmt.Printf("  L1D miss fraction   %.2f%%\n", 100*rep.L1MissFraction)
	fmt.Printf("  invalidations       %d, interventions %d\n", rep.Invalidations, rep.Interventions)
	fmt.Printf("  metadata messages   %d (%d phantom)\n", rep.MetadataMsgs, rep.PhantomMsgs)
	if h := rep.MissLatency; h != nil {
		fmt.Printf("  L1D miss latency    n=%d mean=%.1f min=%d max=%d cycles\n", h.Count, h.Mean, h.Min, h.Max)
	}
	if len(rep.Lines) == 0 {
		fmt.Println("\nno harmful false sharing detected")
	} else {
		fmt.Printf("\n%d falsely shared line(s):\n", len(rep.Lines))
		for _, l := range rep.Lines {
			fmt.Printf("  %-12s writers=%v readers=%v episodes=%d first-at=%d\n",
				l.Address, l.Writers, l.Readers, l.Episodes, l.FirstCycle)
			for _, te := range l.Timeline {
				fmt.Printf("    cycle %-10d %-13s episode %d\n", te.Cycle, te.Event, te.Episode)
			}
		}
	}
	if len(rep.Contended) > 0 {
		fmt.Printf("\n%d contended truly-shared line(s) (§VII — likely synchronization variables):\n", len(rep.Contended))
		for _, l := range rep.Contended {
			fmt.Printf("  %-12s writers=%v readers=%v episodes=%d first-at=%d\n",
				l.Address, l.Writers, l.Readers, l.Episodes, l.FirstCycle)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "fsreport:", err)
	os.Exit(1)
}
