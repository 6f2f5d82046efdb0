package main

import (
	"fmt"
	"io"
	"math"
	"reflect"
)

// compareFiles prints one row per workload and end-to-end metric of two
// results files, A the baseline and B the change, and reports whether any row
// is worse. Differences in host or workload inputs are printed first: such
// files do not measure the same thing.
func compareFiles(pathA, pathB string, stdout, stderr io.Writer) (worse bool, err error) {
	a, err := readResults(pathA)
	if err != nil {
		return false, err
	}
	b, err := readResults(pathB)
	if err != nil {
		return false, err
	}
	if a.Host != b.Host {
		fmt.Fprintf(stderr, "warning: not comparable: hosts differ: %+v vs %+v\n", a.Host, b.Host)
	}
	if a.Seed != b.Seed {
		fmt.Fprintf(stderr, "warning: not comparable: seeds differ: %d vs %d\n", a.Seed, b.Seed)
	}
	fmt.Fprintf(stdout, "%-8s %-16s %36s %36s %9s  %s\n", "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "delta", "verdict")
	for _, wa := range a.Workloads {
		var wb *wlResult
		for i := range b.Workloads {
			if b.Workloads[i].Name == wa.Name {
				wb = &b.Workloads[i]
			}
		}
		if wb == nil {
			fmt.Fprintf(stderr, "warning: workload %s is only in %s\n", wa.Name, pathA)
			continue
		}
		if !reflect.DeepEqual(wa.Params, wb.Params) {
			fmt.Fprintf(stderr, "warning: not comparable: %s inputs differ: %+v vs %+v\n", wa.Name, wa.Params, wb.Params)
		}
		for _, da := range wa.EndToEnd {
			for _, db := range wb.EndToEnd {
				if db.Name != da.Name {
					continue
				}
				v, delta := verdict(da, db)
				worse = worse || v == "worse"
				fmt.Fprintf(stdout, "%-8s %-16s %36s %36s %+8.1f%%  %s\n", wa.Name, da.Name, distString(da), distString(db), 100*delta, v)
			}
		}
	}
	return worse, nil
}

func distString(d dist) string {
	return fmt.Sprintf("%.4g [%.4g, %.4g] %s", d.Median, d.Q1, d.Q3, d.Unit)
}

// verdict judges B against baseline A on one metric, by A's bound. delta is
// the relative change of the median, positive when B is worse. The result is
// "unresolved" when either side's spread (quartile distance over median)
// exceeds the bound, unless every run of one side beats every run of the
// other.
func verdict(a, b dist) (v string, delta float64) {
	sign := 1.0 // worsening is a rise
	if a.Better == "higher" {
		sign = -1
	}
	delta = sign * (b.Median - a.Median)
	if a.Median != 0 {
		delta /= math.Abs(a.Median)
	}
	separated := beatsAll(a.Samples, b.Samples, sign) || beatsAll(b.Samples, a.Samples, sign)
	switch {
	case max(spread(a), spread(b)) > a.Bound && !separated:
		return "unresolved", delta
	case delta > a.Bound:
		return "worse", delta
	case delta < -a.Bound:
		return "better", delta
	}
	return "unchanged", delta
}

// spread is the quartile distance as a share of the median.
func spread(d dist) float64 {
	if d.Median == 0 {
		return 0
	}
	return (d.Q3 - d.Q1) / math.Abs(d.Median)
}

// beatsAll reports whether every sample of x is better than every sample of
// y, where sign is +1 when lower is better and -1 when higher is.
func beatsAll(x, y []float64, sign float64) bool {
	if len(x) == 0 || len(y) == 0 {
		return false
	}
	worstX, bestY := math.Inf(-1), math.Inf(1)
	for _, v := range x {
		worstX = max(worstX, sign*v)
	}
	for _, v := range y {
		bestY = min(bestY, sign*v)
	}
	return worstX < bestY
}
