package fuzz

import (
	"fmt"
	"testing"

	"fscoherence/internal/coherence"
	"fscoherence/internal/cpu"
	"fscoherence/internal/sample"
	"fscoherence/internal/sim"
)

// runSampledProgram executes one generated program under interval sampling
// with the quiescence oracle installed at every window boundary, then applies
// the same SC final-value check as Execute. It returns the number of
// boundaries observed (programs small enough to finish inside the first
// detailed window legitimately report few or none).
func runSampledProgram(t *testing.T, p *Program, spec sample.Spec) int {
	t.Helper()
	cfg, err := config(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Verify stays on — its oracle checks warming commits too — and the
	// boundary hook below adds the quiescence checks.
	cfg.Sample = spec

	ref := buildReference(p)
	workers := len(p.Threads)
	bar := &cpu.Barrier{CountAddr: barCount, SenseAddr: barSense, Threads: workers + 1}
	var threads []cpu.ThreadFunc
	for tid := 0; tid < workers; tid++ {
		threads = append(threads, threadFunc(tid, p.Threads[tid], bar))
	}
	got := make([]uint64, len(ref.words))
	threads = append(threads, func(c *cpu.Ctx) {
		var sense uint64
		bar.Wait(c, &sense)
		for i, w := range ref.words {
			got[i] = c.Load(w, 8)
		}
	})
	wl := sim.Workload{Name: fmt.Sprintf("fuzz-sampled-%d", p.Seed), Threads: threads}
	if p.UseReduction {
		wl.ReductionRegions = []coherence.AddrRange{{Start: addrOf(blkReduce, 0), Size: blockBytes}}
	}

	sys := sim.New(cfg, wl)
	boundaries := 0
	sys.SetBoundaryHook(func(cycle uint64) {
		boundaries++
		if boundaries > 8 { // bound the O(state) sweep on long programs
			return
		}
		for _, v := range quiescenceViolations(sys, cfg.Params.Cores, cfg.Params.Slices) {
			t.Errorf("seed %d %s: boundary at cycle %d: %s", p.Seed, p.Protocol, cycle, v)
		}
		for i := 0; i < cfg.Params.Cores; i++ {
			for _, v := range sys.L1(i).PolicyViolations() {
				t.Errorf("seed %d %s: boundary at cycle %d: L1 %d: %s", p.Seed, p.Protocol, cycle, i, v)
			}
		}
		for s := 0; s < cfg.Params.Slices; s++ {
			for _, v := range sys.Dir(s).PolicyViolations() {
				t.Errorf("seed %d %s: boundary at cycle %d: dir %d: %s", p.Seed, p.Protocol, cycle, s, v)
			}
		}
	})

	res, err := sys.Run(wl.Name)
	if err != nil {
		t.Fatalf("seed %d %s: %v", p.Seed, p.Protocol, err)
	}
	if res.Sampled == nil {
		t.Fatalf("seed %d %s: run did not sample", p.Seed, p.Protocol)
	}
	for _, v := range append(res.OracleViolations, res.SWMRViolations...) {
		t.Errorf("seed %d %s: %s", p.Seed, p.Protocol, v)
	}
	for i, w := range ref.words {
		if want := ref.load8(w); got[i] != want {
			t.Errorf("seed %d %s: word %v = %#x, SC reference %#x",
				p.Seed, p.Protocol, w, got[i], want)
		}
	}
	return boundaries
}

// TestSampledBoundaryAgreement is the window-boundary property test: across a
// corpus of generated programs run under interval sampling, the directory,
// every L1 and the PAM/SAM policy structures must agree at every window
// boundary (the quiescence oracle plus the policy/cache structural checks),
// and the final memory image must still match the SC reference — warming
// windows are architecturally transparent. Faults and sabotage are stripped
// (sampling targets clean perf runs), but hostile cache shapes, reductions
// and the 64-core mesh machine all stay in the mix.
func TestSampledBoundaryAgreement(t *testing.T) {
	specs := []sample.Spec{
		{Detailed: 64, Warming: 192},
		{Detailed: 100, Warming: 100},
		{Detailed: 48, Warming: 400},
	}
	boundaries := 0
	for seed := uint64(1); seed <= 12; seed++ {
		for _, proto := range Protocols {
			p := Generate(seed, proto)
			p.L2, p.NonInclusive = false, false
			p.Faults = FaultSpec{}
			p.Sabotage = nil
			boundaries += runSampledProgram(t, p, specs[int(seed)%len(specs)])
		}
	}
	// The corpus must actually exercise window boundaries: tiny programs may
	// finish inside their first detailed window, but not all 36 of them.
	if boundaries < 10 {
		t.Fatalf("only %d window boundaries across the corpus; sampling did not engage", boundaries)
	}
}
