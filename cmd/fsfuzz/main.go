// Command fsfuzz drives the protocol fuzzing and fault-injection harness
// (internal/fuzz): randomized adversarial workloads executed under latency
// jitter and message reordering, supervised by the full oracle stack
// (golden memory, SWMR, liveness watchdog, quiescence agreement, SC value
// check). See EXPERIMENTS.md §"Protocol fuzzing" and PROTOCOL.md.
//
// Modes:
//
//	fsfuzz -seeds 200                 # campaign: 200 seeds x 3 protocols
//	fsfuzz -seeds 50 -protocol fslite # restrict the protocol sweep
//	fsfuzz -replay repro.json         # re-execute a shrunk repro file
//	fsfuzz -replay repro.json -trace t.json   # ... with a Perfetto trace
//	fsfuzz -selfcheck                 # verify the oracles catch seeded bugs
//	fsfuzz -seeds 200 -progress fuzz.jsonl -resume fuzz.jsonl
//	                                  # crash-resilient campaign: rerun after an
//	                                  # interruption skips already-passed cases
//
// Every failure is shrunk to a minimal repro and written to -out as a JSON
// program file; the printed command line replays it. Exit status: 0 clean,
// 1 failures found (or a selfcheck oracle miss), 2 usage or I/O error.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"fscoherence/cmd/internal/cli"
	"fscoherence/internal/coherence"
	"fscoherence/internal/fuzz"
	"fscoherence/internal/obs"
	"fscoherence/internal/sim"
)

func main() {
	var (
		seeds    = flag.Int("seeds", 200, "number of seeds in the campaign")
		start    = flag.Uint64("start", 1, "first seed of the campaign")
		seed     = flag.Uint64("seed", 0, "run exactly one seed (0 = full campaign)")
		protocol = flag.String("protocol", "all", "protocol sweep: all (default), baseline, fsdetect or fslite")
		replay   = flag.String("replay", "", "replay a repro program file instead of fuzzing")
		self     = flag.Bool("selfcheck", false, "verify the oracles detect seeded protocol bugs")
		out      = flag.String("out", "fuzz-repros", "directory for shrunk repro files")
		jobs     = flag.Int("jobs", 0, "concurrent executions (0 = GOMAXPROCS, capped at 8)")
		stall    = flag.Uint64("stall", 0, "watchdog stall threshold in cycles (0 = default)")
		budget   = flag.Int("shrink", 0, "shrinker execution budget per failure (0 = default)")
		traceOut = flag.String("trace", "", "replay only: write Chrome trace-event JSON (open in Perfetto)")
		progress = flag.String("progress", "", "stream JSONL progress records (one per case) to this file; - for stderr")
		resume   = flag.String("resume", "", "skip cases a prior campaign's -progress log records as passed (failed cases rerun); usually the same file as -progress")
	)
	flag.Parse()

	opt := fuzz.Options{StallCycles: *stall}
	switch {
	case *replay != "":
		os.Exit(doReplay(*replay, *traceOut, opt))
	case *self:
		os.Exit(selfcheck(opt, *budget))
	default:
		os.Exit(campaign(*seeds, *start, *seed, *protocol, *out, *jobs, *budget, *progress, *resume, opt))
	}
}

// loadCompleted reads a prior campaign's -progress JSONL log and returns the
// set of (seed, protocol) cases that completed without failure. Failed cases
// are NOT included — the crash may have preceded their shrunk repro, so they
// rerun. Torn or foreign lines (the record being written when the campaign
// died) are skipped.
func loadCompleted(path string) (map[string]bool, error) {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil // no prior campaign: resume from nothing
		}
		return nil, err
	}
	defer f.Close()
	done := map[string]bool{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	for sc.Scan() {
		var rec fuzz.CaseRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil || rec.Protocol == "" {
			continue
		}
		if rec.Failure == "" {
			done[fmt.Sprintf("%d/%s", rec.Seed, rec.Protocol)] = true
		}
	}
	return done, sc.Err()
}

// protocols resolves the -protocol flag to a sweep list.
func protocols(flag string) ([]string, error) {
	if flag == "all" {
		return fuzz.Protocols, nil
	}
	p, err := coherence.ParseProtocol(flag)
	if err != nil {
		return nil, fmt.Errorf("%w, or all for the full sweep", err)
	}
	return []string{strings.ToLower(p.String())}, nil
}

func campaign(seeds int, start, one uint64, protoFlag, out string, jobs, budget int, progress, resume string, opt fuzz.Options) int {
	protos, err := protocols(protoFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fsfuzz:", err)
		return 2
	}
	if one != 0 {
		start, seeds = one, 1
	}
	var completed map[string]bool
	if resume != "" {
		completed, err = loadCompleted(resume)
		if err != nil {
			fmt.Fprintln(os.Stderr, "fsfuzz:", err)
			return 2
		}
	}
	var stream *os.File
	if progress == "-" {
		stream = os.Stderr
	} else if progress != "" {
		if progress == resume {
			// Resuming into the same log: append, so the records just loaded
			// survive for the next resume.
			stream, err = os.OpenFile(progress, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		} else {
			stream, err = os.Create(progress)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "fsfuzz:", err)
			return 2
		}
		defer stream.Close()
	}
	fmt.Printf("fuzzing %d seed(s) x %v with fault injection\n", seeds, protos)
	cfg := fuzz.CampaignConfig{
		StartSeed: start, Seeds: seeds, Protocols: protos,
		Opt: opt, Jobs: jobs, ShrinkBudget: budget,
		Log: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		},
	}
	if len(completed) > 0 {
		cfg.Skip = func(seed uint64, protocol string) bool {
			return completed[fmt.Sprintf("%d/%s", seed, protocol)]
		}
	}
	if stream != nil {
		cfg.Stream = stream
	}
	res := fuzz.Campaign(cfg)
	fmt.Printf("%d cases, %d simulated cycles, %d failure(s)\n",
		res.Cases, res.TotalCycles, len(res.Failures))
	if len(res.Failures) == 0 {
		return 0
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "fsfuzz:", err)
		return 2
	}
	for _, f := range res.Failures {
		path := filepath.Join(out, fmt.Sprintf("repro-seed%d-%s.json", f.Seed, f.Protocol))
		if err := os.WriteFile(path, f.Shrunk.Marshal(), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "fsfuzz:", err)
			return 2
		}
		fmt.Printf("\nFAIL seed=%d protocol=%s (%d shrink runs)\n  %v\n  repro: %s\n  replay: %s\n",
			f.Seed, f.Protocol, f.Runs, f.Failure, path, fuzz.ReproCommand(path))
	}
	return 1
}

// doReplay re-executes one repro file deterministically, optionally with the
// observability layer attached for a Perfetto trace of the failing run.
func doReplay(path, traceOut string, opt fuzz.Options) int {
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fsfuzz:", err)
		return 2
	}
	p, err := fuzz.Unmarshal(data)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fsfuzz:", err)
		return 2
	}
	var o *obs.Obs
	if traceOut != "" {
		o = obs.New(obs.Config{})
		opt.Obs = func(cfg *sim.Config) { cfg.Obs = o }
	}
	fmt.Printf("replaying %s\n%s\n", path, p)
	out := fuzz.Execute(p, opt)
	if err := cli.Export(o, traceOut, ""); err != nil {
		fmt.Fprintln(os.Stderr, "fsfuzz:", err)
		return 2
	}
	if out.Failure != nil {
		fmt.Printf("reproduced after %d cycles:\n%v\n", out.Cycles, out.Failure)
		return 1
	}
	fmt.Printf("clean: %d cycles, no oracle fired\n", out.Cycles)
	return 0
}

// selfcheck seeds known protocol bugs through the sabotage hook and demands
// every oracle in the stack catch its class: drops and wedges must trip the
// liveness watchdog, payload corruption the golden-memory oracle — and the
// shrinker must converge to a small repro. This validates the harness
// itself; `make fuzzsmoke` runs it in CI.
func selfcheck(opt fuzz.Options, budget int) int {
	if opt.StallCycles == 0 {
		opt.StallCycles = 20_000
	}
	cases := []struct {
		proto string
		sab   fuzz.SabotageSpec
		kinds []string
	}{
		{"baseline", fuzz.SabotageSpec{Mode: "drop", Op: "Data", Nth: 1}, []string{"stall", "deadlock"}},
		{"fsdetect", fuzz.SabotageSpec{Mode: "drop", Op: "InvAck", Nth: 1}, []string{"stall", "deadlock"}},
		{"fslite", fuzz.SabotageSpec{Mode: "drop", Op: "InvAck", Nth: 1}, []string{"stall", "deadlock"}},
		{"fslite", fuzz.SabotageSpec{Mode: "wedge", Op: "Data", Nth: 1}, []string{"stall"}},
		{"fslite", fuzz.SabotageSpec{Mode: "corrupt", Op: "Data", Nth: 5}, []string{"oracle"}},
	}
	bad := 0
	for _, tc := range cases {
		p := fuzz.Generate(42, tc.proto)
		if tc.sab.Mode == "corrupt" {
			p = fuzz.Generate(7, tc.proto)
		}
		sab := tc.sab
		p.Sabotage = &sab
		out := fuzz.Execute(p, opt)
		name := fmt.Sprintf("%s/%s %s #%d", tc.proto, sab.Mode, sab.Op, sab.Nth)
		if out.Failure == nil {
			fmt.Printf("MISS %s: seeded bug not detected\n", name)
			bad++
			continue
		}
		okKind := false
		for _, k := range tc.kinds {
			okKind = okKind || out.Failure.Kind == k
		}
		if !okKind {
			fmt.Printf("MISS %s: detected as %s, want one of %v\n", name, out.Failure.Kind, tc.kinds)
			bad++
			continue
		}
		sr := fuzz.Shrink(p, out.Failure.Kind, opt, budget)
		ops := 0
		for _, t := range sr.Program.Threads {
			ops += len(t)
		}
		fmt.Printf("ok   %s: %s, shrunk to %d thread(s)/%d op(s) in %d runs\n",
			name, out.Failure.Kind, len(sr.Program.Threads), ops, sr.Runs)
	}
	if bad > 0 {
		fmt.Printf("selfcheck: %d seeded bug(s) escaped the oracles\n", bad)
		return 1
	}
	fmt.Println("selfcheck: every seeded bug detected and shrunk")
	return 0
}
