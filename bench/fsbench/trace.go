package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"
)

// traceSeconds is the least time the traced phase runs reps for, so that a
// layer with a small share still collects samples from the profiler's
// 100 Hz: core's 0.4% of mesh64 expects two samples in 5 s. Every traced
// metric is reported per rep.
const traceSeconds = 5

// traceRun is the outcome of a workload's traced reps.
type traceRun struct {
	reps  int
	wall  time.Duration // over all traced reps
	times callTimes     // over all traced reps
	runs  []cellRun     // the last rep's outputs; every rep's are the same
	fold  *profileFold
	cpu   float64 // s of process CPU time over all traced reps
	gc    float64 // s of CPU the garbage collector used, by the runtime's account

	// problem, when set, says why the profile cannot be trusted.
	problem string
}

// tracedReps runs reps through the assembled path under the CPU profiler for
// at least traceSeconds, then folds the profile by layer.
func (r *wlRun) tracedReps() (*traceRun, error) {
	f, err := os.CreateTemp("", "fsbench-*.pprof")
	if err != nil {
		return nil, err
	}
	defer os.Remove(f.Name())
	defer f.Close()

	runtime.GC()
	t := &traceRun{}
	if err := pprof.StartCPUProfile(f); err != nil {
		return nil, err
	}
	gc0, c0, t0 := gcSeconds(), cpuSeconds(), time.Now()
	for t.reps == 0 || time.Since(t0) < traceSeconds*time.Second {
		t.runs = t.runs[:0]
		for _, c := range r.cells {
			t.runs = append(t.runs, runAssembled(c, &t.times))
		}
		r.verify(t.runs)
		t.reps++
	}
	t.wall, t.cpu, t.gc = time.Since(t0), cpuSeconds()-c0, gcSeconds()-gc0
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		return nil, err
	}

	out, err := exec.Command("go", "tool", "pprof", "-traces", f.Name()).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w", err)
	}
	if t.fold, err = foldTraces(bytes.NewReader(out)); err != nil {
		return nil, err
	}
	// The samples must add up to the total pprof reports, up to its
	// two-decimal rounding, and cover the process's CPU time: a profiler
	// that drops samples would skew the layer shares.
	p := t.fold
	switch {
	case math.Abs(p.Total-p.Header) > 0.005+0.005*p.Header:
		t.problem = fmt.Sprintf("profile samples sum to %.3f s, pprof reports %.3f s", p.Total, p.Header)
	case math.Abs(p.Total-t.cpu) > 0.1*t.cpu:
		t.problem = fmt.Sprintf("profile samples cover %.3f s of %.3f s of CPU", p.Total, t.cpu)
	}
	return t, nil
}

// gcSeconds is the CPU time the garbage collector has used so far.
func gcSeconds() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

// profileFold is a CPU profile attributed to layers.
type profileFold struct {
	Total  float64            // s of samples
	Header float64            // the "Total samples" pprof reports, s
	Self   map[string]float64 // s per layer; sums to Total

	// Coro overlaps Self: the samples inside a coroutine switch (every frame
	// of a thread coroutine sits above runtime.corostart, so only the switch
	// itself counts).
	Coro float64
}

// foldTraces reads `go tool pprof -traces` output and attributes every sample
// to the innermost frame that belongs to a layer (see layerOf), or to
// runtime.bg when it has none.
func foldTraces(rd io.Reader) (*profileFold, error) {
	p := &profileFold{Self: map[string]float64{}}
	var value float64
	var stack []string
	flush := func() {
		if len(stack) == 0 {
			return
		}
		layer := bgLayer
		for _, fn := range stack {
			if l := layerOf(fn); l != "" {
				layer = l
				break
			}
		}
		p.Self[layer] += value
		p.Total += value
		for _, fn := range stack {
			if strings.HasPrefix(fn, "runtime.coroswitch") {
				p.Coro += value
				break
			}
		}
		stack = stack[:0]
	}
	sc := bufio.NewScanner(rd)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	body := false
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "Duration: "); ok && !body {
			if _, tot, ok := strings.Cut(rest, "Total samples = "); ok {
				v, _, _ := strings.Cut(tot, " ")
				d, err := parseDuration(v)
				if err != nil {
					return nil, fmt.Errorf("pprof header %q: %w", line, err)
				}
				p.Header = d
			}
			continue
		}
		if strings.HasPrefix(line, "-----------+") {
			flush()
			body = true
			continue
		}
		// A frame line is "%10s   %s": the sample value on the first frame
		// of each stack, blank on the rest. Label lines are "%10s:  %s".
		if !body || len(line) < 13 || line[10:13] != "   " {
			continue
		}
		val, name := strings.TrimSpace(line[:10]), strings.TrimSuffix(line[13:], " (inline)")
		switch {
		case val == "":
			if len(stack) > 0 {
				stack = append(stack, name)
			}
		default:
			d, err := parseDuration(val)
			if err != nil {
				return nil, fmt.Errorf("pprof trace line %q: %w", line, err)
			}
			flush()
			value, stack = d, append(stack, name)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	flush()
	return p, nil
}

// parseDuration reads a pprof time value such as "10ms" or "1.50s" in seconds.
func parseDuration(s string) (float64, error) {
	for _, u := range []struct {
		suffix string
		scale  float64
	}{{"ns", 1e-9}, {"us", 1e-6}, {"µs", 1e-6}, {"ms", 1e-3}, {"s", 1}} {
		if num, ok := strings.CutSuffix(s, u.suffix); ok {
			v, err := strconv.ParseFloat(num, 64)
			if err != nil {
				return 0, err
			}
			return v * u.scale, nil
		}
	}
	return 0, fmt.Errorf("unknown unit in %q", s)
}

// layerOf maps a profile frame to its layer, or "" when the frame belongs to
// none: code outside the simulator, and the packages that defer to their
// caller — the coherence helpers outside the three controller types, the
// spec tables behind dispatch, and the observers kept off the benchmark's
// path (obs, forensics, fuzz, checkpoint, profiling).
func layerOf(fn string) string {
	if strings.HasPrefix(fn, "fscoherence.") {
		return "runner"
	}
	rest, ok := strings.CutPrefix(fn, "fscoherence/internal/")
	if !ok {
		return ""
	}
	pkg, sym, _ := strings.Cut(rest, ".")
	switch pkg {
	case "coherence":
		for _, c := range []struct{ recv, layer string }{
			{"(*L1).", "coherence.l1"}, {"(*Dir).", "coherence.dir"}, {"(*Warmer).", "coherence.warmer"},
		} {
			if strings.HasPrefix(sym, c.recv) {
				return c.layer
			}
		}
		return ""
	case "sample": // the sampled loop's estimators
		return "sim"
	case "sim", "cpu", "core", "network", "memsys", "stats", "workload", "energy", "runner":
		return pkg
	}
	return ""
}
