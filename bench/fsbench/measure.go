package main

import (
	"fmt"
	"io"
	"runtime"
	"slices"
	"sort"
	"syscall"
	"time"

	"fscoherence/internal/stats"
)

// rep is one timed, untraced run of a workload.
type rep struct {
	wall, cpu float64 // s
	alloc     uint64  // bytes
	accesses  uint64  // simulated L1D accesses
}

// wlRun is the measurement state of one workload in one invocation.
type wlRun struct {
	w      *workload
	cells  []cell
	golden *golden

	setup []float64 // s per build of every cell
	reps  []rep

	attempted, failed int
	failures          []string // the first few failure messages

	trace *traceRun
}

// options configures one measurement.
type options struct {
	factor  float64 // size factor
	seconds float64 // closed-loop time budget; 0 runs each workload's reps
	trace   bool
	log     io.Writer
}

// measure runs the workloads: one set-up and one rep, both discarded; then a
// closed loop of timed reps, each followed by a set-up sample, interleaved
// round-robin across workloads; then, when asked, the traced reps.
func measure(ws []*workload, seed int64, o options) ([]*wlRun, error) {
	runs := make([]*wlRun, len(ws))
	for i, w := range ws {
		g, err := loadGolden(w.name, seed)
		if err != nil {
			return nil, err
		}
		r := &wlRun{w: w, cells: w.cells(o.factor), golden: g}
		// Warm up: one set-up and one rep, both discarded.
		if _, err := timeSetup(r.cells); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		r.timedRep()
		runs[i] = r
	}
	start := time.Now()
	for {
		progressed := false
		for _, r := range runs {
			if o.seconds > 0 || len(r.reps) < r.w.reps {
				// Each rep is followed by one set-up, so setup_s samples
				// the same stretch of time as wall_s.
				p := r.timedRep()
				s, err := timeSetup(r.cells)
				if err != nil {
					return nil, fmt.Errorf("%s: set-up: %w", r.w.name, err)
				}
				r.reps, r.setup = append(r.reps, p), append(r.setup, s)
				progressed = true
			}
		}
		if !progressed || (o.seconds > 0 && time.Since(start).Seconds() >= o.seconds) {
			break
		}
	}
	for _, r := range runs {
		fmt.Fprintf(o.log, "%s: %d timed reps, %d/%d cells failed\n", r.w.name, len(r.reps), r.failed, r.attempted)
		if o.trace {
			t, err := r.tracedReps()
			if err != nil {
				return nil, fmt.Errorf("%s: traced reps: %w", r.w.name, err)
			}
			r.trace = t
		}
	}
	return runs, nil
}

// setupBatch is the least time one set-up sample spends building: a build of
// a 64-core cell takes about a millisecond, too short to time alone.
const setupBatch = 50 * time.Millisecond

// timeSetup returns the mean time of one build of every cell, in seconds,
// over builds repeated for at least setupBatch.
func timeSetup(cells []cell) (float64, error) {
	runtime.GC()
	t0 := time.Now()
	for n := 1; ; n++ {
		if err := setupCells(cells); err != nil {
			return 0, err
		}
		if d := time.Since(t0); d >= setupBatch {
			return d.Seconds() / float64(n), nil
		}
	}
}

// timedRep runs and checks one untraced rep through the product path.
func (r *wlRun) timedRep() rep {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0 := cpuSeconds()
	t0 := time.Now()
	runs := runProduct(r.w, r.cells)
	wall := time.Since(t0).Seconds()
	c1 := cpuSeconds()
	runtime.ReadMemStats(&m1)
	r.verify(runs)
	out := rep{wall: wall, cpu: c1 - c0, alloc: m1.TotalAlloc - m0.TotalAlloc}
	for _, cr := range runs {
		out.accesses += cr.accesses()
	}
	return out
}

// verify counts a rep's cells toward attempted and failed.
func (r *wlRun) verify(runs []cellRun) {
	failed, msgs := check(r.golden, r.cells, runs)
	r.attempted += len(runs)
	r.failed += failed
	if room := 5 - len(r.failures); room > 0 {
		r.failures = append(r.failures, msgs[:min(room, len(msgs))]...)
	}
}

// cpuSeconds is the process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// dist is the distribution of one end-to-end metric over a run's reps.
type dist struct {
	metricSpec
	Median  float64   `json:"median"`
	Q1      float64   `json:"q1"`
	Q3      float64   `json:"q3"`
	Best    float64   `json:"best"` // the lowest sample, or the highest when higher is better
	N       int       `json:"n"`
	Samples []float64 `json:"samples"`
}

func newDist(spec metricSpec, xs []float64) dist {
	q1, med, q3 := quartiles(xs)
	d := dist{metricSpec: spec, Median: med, Q1: q1, Q3: q3, N: len(xs), Samples: xs}
	if len(xs) > 0 {
		d.Best = slices.Min(xs)
		if spec.Better == "higher" {
			d.Best = slices.Max(xs)
		}
	}
	return d
}

// value is the number a run reports for the metric. Every rep does the same
// deterministic work, so contention from outside the process only ever adds
// time, and the best rep is the steadiest estimate of the work's cost. A
// set-up sample is already a mean over a batch of builds, whose fastest
// batch depends on how many pages the heap had at hand; set-up reports its
// median.
func (d dist) value() float64 {
	if d.Name == "setup_s" {
		return d.Median
	}
	return d.Best
}

// quartiles returns the quartiles of xs by the exclusive method of Python's
// statistics.quantiles(xs, n=4); the second is the median.
func quartiles(xs []float64) (q1, med, q3 float64) {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	switch len(d) {
	case 0:
		return 0, 0, 0
	case 1:
		return d[0], d[0], d[0]
	}
	n, m := 4, len(d)+1
	q := make([]float64, 3)
	for i := 1; i < n; i++ {
		j := min(max(i*m/n, 1), len(d)-1)
		delta := float64(i*m - j*n)
		q[i-1] = (d[j-1]*(float64(n)-delta) + d[j]*delta) / float64(n)
	}
	return q[0], q[1], q[2]
}

func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// endToEnd returns the workload's end-to-end metrics, in endToEndSpecs order.
func (r *wlRun) endToEnd() []dist {
	var wall, rate, cpu, alloc []float64
	for _, p := range r.reps {
		wall = append(wall, p.wall)
		rate = append(rate, float64(p.accesses)/p.wall)
		cpu = append(cpu, p.cpu)
		alloc = append(alloc, float64(p.alloc)/1e6)
	}
	values := map[string][]float64{
		"wall_s":         wall,
		"accesses_per_s": rate,
		"cpu_s":          cpu,
		"setup_s":        r.setup,
		"alloc_mb":       alloc,
		"failed_frac":    {float64(r.failed) / float64(max(r.attempted, 1))},
	}
	var out []dist
	for _, s := range endToEndSpecs {
		out = append(out, newDist(s, values[s.Name]))
	}
	return out
}

// perLayer returns the per-layer metrics of the traced reps, per rep.
func (r *wlRun) perLayer() map[string]float64 {
	t := r.trace
	n := float64(t.reps)
	// A layer's time is its share of the profile's samples times the CPU
	// time the process used: the profile measures shares, getrusage the
	// total, to the nanosecond.
	share := func(samples float64) float64 { return ratio(samples, t.fold.Total) * t.cpu / n }
	m := map[string]float64{}
	for _, l := range profileLayers {
		m[l+".self_s"] = share(t.fold.Self[l])
	}
	m["runtime.bg_s"] = share(t.fold.Self[bgLayer])
	m["runtime.gc_s"] = t.gc / n
	m["runtime.coro_s"] = share(t.fold.Coro)

	ct := t.times
	m["workload.build_s"] = ct.build.Seconds() / n
	m["sim.new_s"] = ct.new.Seconds() / n
	m["sim.run_s"] = ct.run.Seconds() / n
	m["energy.compute_s"] = ct.energy.Seconds() / n
	m["sim.detailed_s"] = ct.detailed.Seconds() / n
	m["sim.warming_s"] = ct.warming.Seconds() / n

	var util, wall, alloc, acc []float64
	for _, p := range r.reps {
		util = append(util, p.cpu/p.wall)
		wall = append(wall, p.wall)
		alloc = append(alloc, float64(p.alloc))
		acc = append(acc, float64(p.accesses))
	}
	m["host.cpu_util"] = median(util)

	counter := map[string]string{
		"cpu.ops":           stats.CtrOpsCommitted,
		"cpu.stall_cycles":  stats.CtrStallCycles,
		"l1d.accesses":      stats.CtrL1DAccesses,
		"l1d.misses":        stats.CtrL1DMisses,
		"dir.invalidations": stats.CtrDirInval,
		"dir.interventions": stats.CtrDirInterv,
		"llc.misses":        stats.CtrLLCMisses,
		"net.messages":      stats.CtrNetMessages,
		"net.hops":          stats.CtrNetHops,
		"net.link_wait":     stats.CtrNetLinkWait,
		"pam.updates":       stats.CtrPAMUpdates,
		"sam.lookups":       stats.CtrSAMLookups,
		"fs.privatizations": stats.CtrFSPrivatized,
		"fs.terminations":   stats.CtrFSTerminations,
	}
	var windows, detailed uint64
	for _, cr := range t.runs {
		if cr.stats == nil {
			continue
		}
		for name, ctr := range counter {
			m[name] += float64(cr.stats.Get(ctr))
		}
		m["sim.cycles"] += float64(cr.cycles)
		if s := cr.sampled; s != nil {
			windows += uint64(s.Windows)
			detailed += s.Detailed
		} else {
			detailed += cr.accesses()
		}
	}
	m["sample.windows"] = float64(windows)
	m["sample.detailed_accesses"] = float64(detailed)
	warmAcc := m["l1d.accesses"] - float64(detailed)
	m["sample.detailed_accesses_per_s"] = ratio(float64(detailed), m["sim.detailed_s"])
	m["sample.warm_accesses_per_s"] = ratio(warmAcc, m["sim.warming_s"])
	m["sample.warm_vs_detailed"] = ratio(m["sample.warm_accesses_per_s"], m["sample.detailed_accesses_per_s"])

	m["sim.ns_per_cycle"] = ratio(1e9*m["sim.run_s"], m["sim.cycles"])
	coh := m["coherence.l1.self_s"] + m["coherence.dir.self_s"] + m["coherence.warmer.self_s"]
	m["coherence.ns_per_access"] = ratio(1e9*coh, m["l1d.accesses"])
	m["network.ns_per_message"] = ratio(1e9*m["network.self_s"], m["net.messages"])
	m["core.ns_per_pam_update"] = ratio(1e9*m["core.self_s"], m["pam.updates"])
	m["alloc_bytes_per_access"] = ratio(median(alloc), median(acc))
	m["trace_overhead"] = ratio(t.wall.Seconds()/n, median(wall)) - 1
	return m
}

// ratio is a/b, or 0 when b is 0 (a layer that did no such work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
