// Package sample implements SMARTS-style interval sampling for the
// simulator: execution alternates short detailed windows (full timing — the
// existing engines, unchanged) with long functional-warming windows (a fast
// path that performs every architectural state change — caches, directory,
// PAM/SAM, memory values — but no network timing, contention or event loop).
//
// Because the warming path keeps all detection and repair state warm, each
// detailed window measures a correctly-warmed machine, and per-access rates
// observed in the detailed windows extrapolate to the whole run with a
// confidence interval computed across windows (Wunderlich et al., SMARTS,
// ISCA'03).
package sample

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"fscoherence/internal/stats"
)

// Estimate aliases the stats-layer estimate type so callers that only deal
// in sampling need not import both packages.
type Estimate = stats.Estimate

// Spec is a parsed -sample specification: the detailed and warming window
// lengths in committed memory accesses.
type Spec struct {
	Detailed uint64 // accesses measured in full detail per period
	Warming  uint64 // accesses fast-forwarded with functional warming per period
}

// Enabled reports whether the spec actually samples (a zero Spec disables).
func (s Spec) Enabled() bool { return s.Detailed > 0 && s.Warming > 0 }

// Period returns the total accesses per sampling period.
func (s Spec) Period() uint64 { return s.Detailed + s.Warming }

// String renders the spec in the accepted input syntax.
func (s Spec) String() string {
	if !s.Enabled() {
		return ""
	}
	return fmt.Sprintf("%s:%s", compact(s.Detailed), compact(s.Warming))
}

func compact(v uint64) string {
	switch {
	case v >= 1_000_000_000 && v%1_000_000_000 == 0:
		return strconv.FormatUint(v/1_000_000_000, 10) + "g"
	case v >= 1_000_000 && v%1_000_000 == 0:
		return strconv.FormatUint(v/1_000_000, 10) + "m"
	case v >= 1_000 && v%1_000 == 0:
		return strconv.FormatUint(v/1_000, 10) + "k"
	}
	return strconv.FormatUint(v, 10)
}

// ParseSpec parses "detailed:warming" with optional k/m/g suffixes
// (e.g. "50k:950k", "1m:19m"). The empty string parses to a disabled Spec.
func ParseSpec(s string) (Spec, error) {
	if s == "" {
		return Spec{}, nil
	}
	det, warm, ok := strings.Cut(s, ":")
	if !ok {
		return Spec{}, fmt.Errorf("sample: spec %q must be detailed:warming (e.g. 50k:950k)", s)
	}
	d, err := parseCount(det)
	if err != nil {
		return Spec{}, fmt.Errorf("sample: bad detailed window %q: %v", det, err)
	}
	w, err := parseCount(warm)
	if err != nil {
		return Spec{}, fmt.Errorf("sample: bad warming window %q: %v", warm, err)
	}
	if d == 0 || w == 0 {
		return Spec{}, fmt.Errorf("sample: window lengths must be positive in %q", s)
	}
	return Spec{Detailed: d, Warming: w}, nil
}

func parseCount(s string) (uint64, error) {
	if s == "" {
		return 0, fmt.Errorf("empty count")
	}
	mult := uint64(1)
	switch s[len(s)-1] {
	case 'k', 'K':
		mult, s = 1_000, s[:len(s)-1]
	case 'm', 'M':
		mult, s = 1_000_000, s[:len(s)-1]
	case 'g', 'G':
		mult, s = 1_000_000_000, s[:len(s)-1]
	}
	v, err := strconv.ParseUint(s, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("not a count: %v", err)
	}
	if v == 0 && mult > 1 {
		return 0, fmt.Errorf("zero count")
	}
	if v > math.MaxUint64/mult {
		return 0, fmt.Errorf("count overflows")
	}
	return v * mult, nil
}

// Window is one completed detailed window's contribution to an estimator:
// the counter delta and the access delta observed while timing was on.
type Window struct {
	Counter  uint64 // counter increase across the window
	Accesses uint64 // committed accesses across the window
}

// Estimator accumulates per-window observations of one counter and produces
// the whole-run ratio estimate. The estimand is the per-access rate; the
// point estimate multiplies the pooled rate by the total access count, and
// the confidence interval comes from the across-window variance of the
// per-window rates (windows are approximately equal-sized, so the unweighted
// window mean is the standard SMARTS estimator).
type Estimator struct {
	windows []Window
}

// Observe appends one detailed window's deltas.
func (e *Estimator) Observe(counter, accesses uint64) {
	e.windows = append(e.windows, Window{Counter: counter, Accesses: accesses})
}

// Windows returns the number of observed windows.
func (e *Estimator) Windows() int { return len(e.windows) }

// DetailedAccesses returns the total accesses measured in detail.
func (e *Estimator) DetailedAccesses() uint64 {
	var n uint64
	for _, w := range e.windows {
		n += w.Accesses
	}
	return n
}

// Estimate extrapolates to totalAccesses committed accesses. Mean is the
// pooled-ratio estimate; CI95 is 1.96 times the standard error of the mean
// per-window rate, scaled by totalAccesses. With fewer than two windows the
// interval collapses to zero (no variance information).
func (e *Estimator) Estimate(totalAccesses uint64) Estimate {
	var sumC, sumN uint64
	for _, w := range e.windows {
		sumC += w.Counter
		sumN += w.Accesses
	}
	est := Estimate{Windows: len(e.windows)}
	if totalAccesses > 0 {
		est.Coverage = float64(sumN) / float64(totalAccesses)
	}
	if sumN == 0 {
		return est
	}
	est.Mean = float64(sumC) / float64(sumN) * float64(totalAccesses)
	if len(e.windows) < 2 {
		return est
	}
	// Across-window variance of the per-access rate.
	mean := 0.0
	rates := make([]float64, 0, len(e.windows))
	for _, w := range e.windows {
		if w.Accesses == 0 {
			continue
		}
		r := float64(w.Counter) / float64(w.Accesses)
		rates = append(rates, r)
		mean += r
	}
	if len(rates) < 2 {
		return est
	}
	mean /= float64(len(rates))
	var ss float64
	for _, r := range rates {
		d := r - mean
		ss += d * d
	}
	sd := math.Sqrt(ss / float64(len(rates)-1))
	est.CI95 = 1.96 * sd / math.Sqrt(float64(len(rates))) * float64(totalAccesses)
	return est
}
