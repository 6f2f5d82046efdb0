package fscoherence

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"fscoherence/internal/stats"
)

// sampledTolerance is the validation gate for interval-sampling estimates:
// the estimate must land within max(2·CI95, 15% of the full-run value) of the
// fully-timed reference. The CI term covers high-variance workloads (where
// the estimator itself reports its uncertainty); the relative term covers
// low-variance ones whose CI collapses to ~0 while the interleaving still
// shifts the total slightly.
func sampledTolerance(est Estimate, full float64) float64 {
	return math.Max(2*est.CI95, 0.15*full)
}

// TestSampledVsFull is the acceptance gate for the sampling engine (`make
// samplecheck`): for representative benchmark/protocol cells, the sampled
// estimates of every timing-domain metric must agree with a fully-timed run
// within sampledTolerance.
func TestSampledVsFull(t *testing.T) {
	cells := []struct {
		bench string
		opt   Options
		spec  string
	}{
		{"RC", Options{Protocol: Baseline, Scale: 4}, "20k:60k"},
		{"RC", Options{Protocol: FSLite, Scale: 4}, "20k:60k"},
		{"LR", Options{Protocol: FSDetect}, "10k:30k"},
		{"uGRID", Options{Protocol: FSLite, Scale: 40, Cores: 16, Topology: "mesh"}, "50k:150k"},
	}
	metrics := []string{stats.CtrCycles, stats.CtrNetMessages, stats.CtrNetBytes, stats.CtrStallCycles}
	for _, c := range cells {
		c := c
		t.Run(fmt.Sprintf("%s-%v", c.bench, c.opt.Protocol), func(t *testing.T) {
			t.Parallel()
			full, err := Run(c.bench, c.opt)
			if err != nil {
				t.Fatal(err)
			}
			opt := c.opt
			opt.Sample = c.spec
			samp, err := Run(c.bench, opt)
			if err != nil {
				t.Fatal(err)
			}
			if samp.Sampled == nil {
				t.Fatal("run did not sample")
			}
			if samp.Sampled.Windows < 2 {
				t.Fatalf("only %d sampling windows; spec %s too coarse for this cell", samp.Sampled.Windows, c.spec)
			}
			for _, m := range metrics {
				est, ok := samp.Sampled.Estimates[m]
				if !ok {
					t.Errorf("no estimate for %s", m)
					continue
				}
				ref := float64(full.Stats.Get(m))
				if m == stats.CtrCycles {
					ref = float64(full.Cycles)
				}
				if tol := sampledTolerance(est, ref); math.Abs(est.Mean-ref) > tol {
					t.Errorf("%s: estimate %.0f ± %.0f vs full %.0f (tolerance %.0f)",
						m, est.Mean, est.CI95, ref, tol)
				}
			}
		})
	}
}

// TestSampledDeterministicAcrossWorkers checks that sampled runs are
// byte-identical no matter how the sweep engine schedules them: the same
// cells through a serial runner and an 8-worker runner must produce identical
// counter snapshots (including the written-back estimates) — the `-j N`
// determinism contract extended to sampling.
func TestSampledDeterministicAcrossWorkers(t *testing.T) {
	cells := []struct {
		bench string
		opt   Options
	}{
		{"RC", Options{Protocol: Baseline}},
		{"RC", Options{Protocol: FSLite}},
		{"LR", Options{Protocol: FSDetect}},
		{"uRED", Options{Protocol: FSLite}},
	}
	snap := func(workers int) []map[string]uint64 {
		r := NewRunner(workers)
		if err := r.SetDefaults(Options{Sample: "5k:15k"}); err != nil {
			t.Fatal(err)
		}
		var futs []*Future
		for _, c := range cells {
			futs = append(futs, r.Submit(c.bench, c.opt))
		}
		r.Wait()
		var out []map[string]uint64
		for _, f := range futs {
			res, err := f.Result()
			if err != nil {
				t.Fatal(err)
			}
			if res.Sampled == nil {
				t.Fatalf("%s did not sample", res.Benchmark)
			}
			out = append(out, res.Stats.Snapshot())
		}
		return out
	}
	serial, parallel := snap(1), snap(8)
	for i := range cells {
		if !reflect.DeepEqual(serial[i], parallel[i]) {
			for k, v := range serial[i] {
				if parallel[i][k] != v {
					t.Errorf("%s/%v: %s = %d serial vs %d parallel",
						cells[i].bench, cells[i].opt.Protocol, k, v, parallel[i][k])
				}
			}
		}
	}
}

// TestSampledVerify runs every benchmark under every protocol at a fine
// sampling spec with Verify on (`make samplecheck`): warming commits reach
// the golden-memory oracle, so a warmer that drifts from the protocol's
// values shows up as an oracle violation, and the detailed windows it hands
// over are scanned for SWMR violations as in a full run.
func TestSampledVerify(t *testing.T) {
	for _, b := range Benchmarks() {
		for _, mode := range []Protocol{Baseline, FSDetect, FSLite} {
			b, mode := b.Name, mode
			t.Run(fmt.Sprintf("%s-%v", b, mode), func(t *testing.T) {
				t.Parallel()
				res, err := Run(b, Options{Protocol: mode, Sample: "2k:6k", Verify: true})
				if err != nil {
					t.Fatal(err)
				}
				if res.Sampled == nil || res.Sampled.Detailed == res.Sampled.Accesses {
					t.Fatalf("no access was warmed (sampled report %+v)", res.Sampled)
				}
				for _, v := range res.Violations {
					t.Error(v)
				}
			})
		}
	}
}
