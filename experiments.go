package fscoherence

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"fscoherence/internal/stats"
)

// Table is one reproduced figure or table: named rows of named columns, with
// a closing summary row where the paper reports one.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    []TableRow

	// Summary holds the closing row's values, labelled SummaryName:
	// "geomean" for geometric means, "mean" for Fig 13's arithmetic mean.
	// Columns it lacks are left blank.
	Summary     map[string]float64
	SummaryName string
}

// TableRow is one benchmark's values.
type TableRow struct {
	Name   string
	Values map[string]float64
}

// String renders the table in a fixed-width layout.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", t.ID, t.Title)
	fmt.Fprintf(&b, "%-10s", "")
	for _, c := range t.Columns {
		fmt.Fprintf(&b, "%14s", c)
	}
	b.WriteByte('\n')
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%-10s", r.Name)
		for _, c := range t.Columns {
			fmt.Fprintf(&b, "%14.3f", r.Values[c])
		}
		b.WriteByte('\n')
	}
	if len(t.Summary) > 0 {
		fmt.Fprintf(&b, "%-10s", t.SummaryName)
		for _, c := range t.Columns {
			if v, ok := t.Summary[c]; ok {
				fmt.Fprintf(&b, "%14.3f", v)
			} else {
				fmt.Fprintf(&b, "%14s", "")
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// CSV renders the table as comma-separated values (the artifact's consumable
// format: one row per benchmark, the summary last).
func (t *Table) CSV() string {
	var b strings.Builder
	b.WriteString("benchmark")
	for _, c := range t.Columns {
		b.WriteString("," + c)
	}
	b.WriteByte('\n')
	for _, r := range t.Rows {
		b.WriteString(r.Name)
		for _, c := range t.Columns {
			fmt.Fprintf(&b, ",%.6f", r.Values[c])
		}
		b.WriteByte('\n')
	}
	if len(t.Summary) > 0 {
		b.WriteString(t.SummaryName)
		for _, c := range t.Columns {
			if v, ok := t.Summary[c]; ok {
				fmt.Fprintf(&b, ",%.6f", v)
			} else {
				b.WriteString(",")
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Markdown renders the table as a GitHub-flavoured markdown table.
func (t *Table) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "### %s — %s\n\n", t.ID, t.Title)
	b.WriteString("| benchmark |")
	for _, c := range t.Columns {
		fmt.Fprintf(&b, " %s |", c)
	}
	b.WriteString("\n|---|")
	for range t.Columns {
		b.WriteString("---|")
	}
	b.WriteByte('\n')
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "| %s |", r.Name)
		for _, c := range t.Columns {
			fmt.Fprintf(&b, " %.3f |", r.Values[c])
		}
		b.WriteByte('\n')
	}
	if len(t.Summary) > 0 {
		fmt.Fprintf(&b, "| **%s** |", t.SummaryName)
		for _, c := range t.Columns {
			if v, ok := t.Summary[c]; ok {
				fmt.Fprintf(&b, " **%.3f** |", v)
			} else {
				b.WriteString(" |")
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// summary is a column's closing-row statistic and the row's label.
type summary struct {
	name string
	of   func([]float64) float64
}

var (
	geomean = &summary{"geomean", func(vs []float64) float64 {
		if len(vs) == 0 {
			return 0
		}
		sum := 0.0
		for _, v := range vs {
			sum += math.Log(v)
		}
		return math.Exp(sum / float64(len(vs)))
	}}

	// mean is the arithmetic mean, which the paper reports for Fig. 13.
	mean = &summary{"mean", func(vs []float64) float64 {
		sum := 0.0
		for _, v := range vs {
			sum += v
		}
		return sum / float64(len(vs))
	}}
)

// figure describes one reproduced table as data: its rows are benchmarks,
// each run is one Options applied to every benchmark, and each column is a
// function of a row's results, indexed like runs.
type figure struct {
	id, title string
	benches   []string
	runs      []Options
	cols      []column
}

// column is one table column: its value for a row, and an optional summary
// over all rows (geomean, or mean for Fig. 13; nil reports none).
type column struct {
	name    string
	val     func(rs []*Result) float64
	summary *summary
}

// build runs f at scale: it submits every run for every benchmark in run
// order, then collects row by row, which fixes the layout for any worker
// count. A failed cell panics out of build (Future.Must); cmd/fsexp recovers
// per experiment.
func (f figure) build(r *Runner, scale float64) *Table {
	t := &Table{ID: f.id, Title: f.title, Summary: map[string]float64{}}
	futs := make([][]*Future, len(f.runs))
	for j, opt := range f.runs {
		opt.Scale = scale
		futs[j] = r.SubmitBenches(f.benches, opt)
	}
	vals := make([][]float64, len(f.cols))
	for i, b := range f.benches {
		rs := make([]*Result, len(f.runs))
		for j := range futs {
			rs[j] = futs[j][i].Must()
		}
		row := TableRow{Name: b, Values: map[string]float64{}}
		for k, c := range f.cols {
			row.Values[c.name] = c.val(rs)
			vals[k] = append(vals[k], row.Values[c.name])
		}
		t.Rows = append(t.Rows, row)
	}
	for k, c := range f.cols {
		t.Columns = append(t.Columns, c.name)
		if c.summary != nil {
			t.Summary[c.name] = c.summary.of(vals[k])
			t.SummaryName = c.summary.name
		}
	}
	return t
}

// speedup is run i's speedup over run ref, and normEnergy its
// cache-hierarchy energy normalized to run ref's.
func speedup(name string, i, ref int) column {
	return column{name, func(rs []*Result) float64 { return rs[i].Speedup(rs[ref]) }, geomean}
}
func normEnergy(name string, i, ref int) column {
	return column{name, func(rs []*Result) float64 { return rs[i].NormalizedEnergy(rs[ref]) }, geomean}
}

// counterRatio is run i's count of ctr relative to run ref's, and
// metadataShare the fraction of run i's messages that carry metadata.
func counterRatio(name, ctr string, i, ref int) column {
	return column{name, func(rs []*Result) float64 {
		return float64(rs[i].Stats.Get(ctr)) / float64(rs[ref].Stats.Get(ctr))
	}, geomean}
}
func metadataShare(i int) column {
	return column{"metadata-share", func(rs []*Result) float64 {
		return float64(rs[i].Stats.Get("net.msg.metadata")) / float64(rs[i].Stats.Get(stats.CtrNetMessages))
	}, nil}
}

var (
	// Figure 2: manually fixing false sharing with padded layouts.
	fig2 = figure{id: "Fig 2", title: "Speedup after manually fixing false sharing (baseline MESI)",
		benches: FalseSharingBenchmarks(),
		runs:    []Options{{Protocol: Baseline}, {Protocol: Baseline, Variant: LayoutPadded}},
		cols:    []column{speedup("manual", 1, 0)}}

	// Figure 13; the paper reports the arithmetic mean for Fig. 13.
	fig13 = figure{id: "Fig 13", title: "Fraction of L1D accesses that miss (baseline)",
		benches: FalseSharingBenchmarks(),
		runs:    []Options{{Protocol: Baseline}},
		cols:    []column{{"miss-fraction", func(rs []*Result) float64 { return rs[0].MissFraction }, mean}}}

	// Figure 14a: the headline speedups on the false-sharing benchmarks.
	fig14a = figure{id: "Fig 14a", title: "Speedup of FSDetect and FSLite over baseline",
		benches: FalseSharingBenchmarks(),
		runs:    []Options{{Protocol: Baseline}, {Protocol: FSDetect}, {Protocol: FSLite}},
		cols:    []column{speedup("fsdetect", 1, 0), speedup("fslite", 2, 0)}}

	// Figure 14b: cache-hierarchy energy normalized to the baseline.
	fig14b = figure{id: "Fig 14b", title: "Normalized energy of FSDetect and FSLite",
		benches: FalseSharingBenchmarks(),
		runs:    []Options{{Protocol: Baseline}, {Protocol: FSDetect}, {Protocol: FSLite}},
		cols:    []column{normEnergy("fsdetect", 1, 0), normEnergy("fslite", 2, 0)}}

	// Figure 15: FSLite must not hurt applications without false sharing.
	fig15 = figure{id: "Fig 15", title: "FSLite on applications without false sharing",
		benches: NoFalseSharingBenchmarks(),
		runs:    []Options{{Protocol: Baseline}, {Protocol: FSLite}},
		cols:    []column{speedup("speedup", 1, 0), normEnergy("energy", 1, 0)}}

	// Figure 16: privatization thresholds 32 and 64 against the default 16.
	fig16 = figure{id: "Fig 16", title: "FSLite sensitivity to the privatization threshold tauP (relative to tauP=16)",
		benches: []string{"BS", "LL", "LR", "LT", "RC", "SF", "SM"}, // SC excluded (§VIII-B)
		runs:    []Options{{Protocol: FSLite}, {Protocol: FSLite, TauP: 32}, {Protocol: FSLite, TauP: 64}},
		cols:    []column{speedup("tauP=32", 1, 0), speedup("tauP=64", 2, 0)}}

	// Figure 17: Huron's repaired layouts run under the baseline protocol.
	fig17 = figure{id: "Fig 17", title: "Manual fix vs Huron vs FSLite (speedup over baseline)",
		benches: HuronBenchmarks(),
		runs: []Options{{Protocol: Baseline}, {Protocol: Baseline, Variant: LayoutPadded},
			{Protocol: Baseline, Variant: LayoutHuron}, {Protocol: FSLite}},
		cols: []column{speedup("manual", 1, 0), speedup("huron", 2, 0), speedup("fslite", 3, 0)}}

	// The §VIII-B interconnect study: the reduction in L1-originated request
	// messages and total traffic under FSLite, plus the metadata overhead.
	netTraffic = figure{id: "Net", title: "FSLite interconnect traffic relative to baseline (false-sharing apps)",
		benches: FalseSharingBenchmarks(),
		runs:    []Options{{Protocol: Baseline}, {Protocol: FSLite}},
		cols: []column{counterRatio("requests", "net.msg.request", 1, 0),
			counterRatio("messages", stats.CtrNetMessages, 1, 0),
			counterRatio("bytes", stats.CtrNetBytes, 1, 0), metadataShare(1)}}

	// The §VIII-B SAM-table study, plus the fraction of SAM insertions that
	// replaced a valid entry at the default 128 entries.
	samSize = figure{id: "SAM", title: "FSLite sensitivity to SAM table size (256 vs 128 entries)",
		benches: FalseSharingBenchmarks(),
		runs:    []Options{{Protocol: FSLite}, {Protocol: FSLite, SAMEntries: 256}},
		cols: []column{speedup("speedup-256", 1, 0), {"replace-frac-128", func(rs []*Result) float64 {
			return rs[0].Stats.Ratio(stats.CtrSAMReplacements, stats.CtrSAMLookups)
		}, nil}}}

	// The §VI/§VIII-B reader-metadata optimization study: FSLite with the
	// last-reader+overflow SAM encoding must privatize the same blocks and
	// match the performance of the full reader bit-vector.
	readerOpt = figure{id: "ReaderOpt", title: "Reader metadata optimization (last-reader+overflow vs full bit-vector)",
		benches: FalseSharingBenchmarks(),
		runs:    []Options{{Protocol: FSLite}, {Protocol: FSLite, ReaderOpt: true}},
		cols: []column{speedup("speedup", 1, 0), {"privatizations-ratio", func(rs []*Result) float64 {
			if p := rs[0].Stats.Get(stats.CtrFSPrivatized); p > 0 {
				return float64(rs[1].Stats.Get(stats.CtrFSPrivatized)) / float64(p)
			}
			return 1
		}, nil}}}

	// The §VIII-B coarse-grain tracking study.
	grain = figure{id: "Grain", title: "FSLite with coarse-grain access tracking (relative to 1-byte grain)",
		benches: FalseSharingBenchmarks(),
		runs:    []Options{{Protocol: FSLite}, {Protocol: FSLite, Granularity: 2}, {Protocol: FSLite, Granularity: 4}},
		cols:    []column{speedup("grain=2", 1, 0), speedup("grain=4", 2, 0)}}

	// The §VIII-B iso-storage comparison, across all 14 applications.
	isoStorage = figure{id: "ISO", title: "FSLite@32KB L1D vs baseline@128KB L1D (all applications)",
		benches: slices.Concat(FalseSharingBenchmarks(), NoFalseSharingBenchmarks()),
		runs:    []Options{{Protocol: Baseline, L1KB: 128}, {Protocol: FSLite}},
		cols:    []column{speedup("speedup", 1, 0)}}

	// The §VIII-B large-private-cache study: 512 KB mimics a mid-level cache.
	largeL1 = figure{id: "BigL1", title: "FSLite speedup with a 512KB private cache (false-sharing apps)",
		benches: FalseSharingBenchmarks(),
		runs:    []Options{{Protocol: Baseline, L1KB: 512}, {Protocol: FSLite, L1KB: 512}},
		cols:    []column{speedup("speedup", 1, 0)}}

	// The §VII three-level hierarchy. The paper argues FSLite's benefit is
	// unchanged (metadata stays at the L1; the PAM-eviction traffic is a
	// few percent of L1-to-LLC traffic).
	threeLevel = figure{id: "L2", title: "FSLite with a 256KB private L2 per core (three-level hierarchy)",
		benches: FalseSharingBenchmarks(),
		runs:    []Options{{Protocol: Baseline, L2KB: 256}, {Protocol: FSLite, L2KB: 256}},
		cols:    []column{speedup("speedup", 1, 0), metadataShare(1)}}

	// The §VIII-B out-of-order study.
	ooo = figure{id: "OOO", title: "8-wide out-of-order cores: OOO-baseline/in-order and FSLite/OOO-baseline",
		benches: []string{"BS", "LL", "LR", "LT", "RC", "SM"}, // the six FS apps the paper ran in SE mode
		runs:    []Options{{Protocol: Baseline}, {Protocol: Baseline, OOO: true}, {Protocol: FSLite, OOO: true}},
		cols:    []column{speedup("ooo-vs-inorder", 1, 0), speedup("fslite-on-ooo", 2, 1)}}

	// Table V's role (per-application run times), as simulated cycles.
	tableV = figure{id: "Table V", title: "Simulated cycles per application (baseline / FSLite)",
		benches: slices.Sorted(slices.Values(slices.Concat(NoFalseSharingBenchmarks(), FalseSharingBenchmarks()))),
		runs:    []Options{{Protocol: Baseline}, {Protocol: FSLite}},
		cols: []column{{"baseline-cycles", func(rs []*Result) float64 { return float64(rs[0].Cycles) }, nil},
			{"fslite-cycles", func(rs []*Result) float64 { return float64(rs[1].Cycles) }, nil}}}
)

// Fig14Speedup builds Figure 14a (fsbench times it).
func Fig14Speedup(r *Runner, scale float64) *Table { return fig14a.build(r, scale) }

// Fig15NoFalseSharing builds Figure 15 (fsbench times it).
func Fig15NoFalseSharing(r *Runner, scale float64) *Table { return fig15.build(r, scale) }

// DoSStudy quantifies the introduction's denial-of-service observation: a
// program with a very high volume of falsely shared blocks floods the
// interconnect with invalidations and interventions; FSLite defuses the
// attack by privatizing the contended lines. Its rows are protocols.
func DoSStudy(r *Runner, scale float64) *Table {
	t := &Table{ID: "DoS", Title: "Interconnect flooding by high-volume false sharing (uDoS micro)",
		Columns: []string{"msgs-per-kcycle", "inv+interv", "speedup"}}
	baseF := r.Submit("uDoS", Options{Protocol: Baseline, Scale: scale})
	fslF := r.Submit("uDoS", Options{Protocol: FSLite, Scale: scale})
	base, fsl := baseF.Must(), fslF.Must()
	row := func(name string, res *Result) {
		t.Rows = append(t.Rows, TableRow{Name: name, Values: map[string]float64{
			"msgs-per-kcycle": 1000 * float64(res.Stats.Get(stats.CtrNetMessages)) / float64(res.Cycles),
			"inv+interv":      float64(res.Stats.Get("dir.invalidations") + res.Stats.Get("dir.interventions")),
			"speedup":         res.Speedup(base),
		}})
	}
	row("baseline", base)
	row("fslite", fsl)
	return t
}

// Experiments maps experiment IDs to their generators (used by cmd/fsexp).
// Generators share one Runner per invocation, so reference cells repeated
// across tables (every Baseline run, the FSLite defaults) simulate once.
var Experiments = []struct {
	ID   string
	Gen  func(r *Runner, scale float64) *Table
	Note string
}{
	{"fig2", fig2.build, "manual-fix speedups"},
	{"fig13", fig13.build, "L1D miss fractions"},
	{"fig14a", Fig14Speedup, "FSDetect/FSLite speedups"},
	{"fig14b", fig14b.build, "normalized energy"},
	{"fig15", Fig15NoFalseSharing, "no-false-sharing applications"},
	{"fig16", fig16.build, "tauP sensitivity"},
	{"fig17", fig17.build, "Huron comparison"},
	{"net", netTraffic.build, "interconnect traffic"},
	{"sam", samSize.build, "SAM table size"},
	{"readeropt", readerOpt.build, "reader metadata optimization"},
	{"grain", grain.build, "coarse-grain tracking"},
	{"iso", isoStorage.build, "iso-storage 128KB baseline"},
	{"bigl1", largeL1.build, "512KB private caches"},
	{"l2", threeLevel.build, "three-level hierarchy (private L2)"},
	{"dos", DoSStudy, "interconnect DoS mitigation"},
	{"ooo", ooo.build, "out-of-order cores"},
	{"tablev", tableV.build, "per-application run times"},
}
