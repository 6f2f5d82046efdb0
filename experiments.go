package fscoherence

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"fscoherence/internal/stats"
)

// Table is one reproduced figure or table: named rows of named columns, with
// geometric means where the paper reports them.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    []TableRow
	GeoMean map[string]float64
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
	if len(t.GeoMean) > 0 {
		fmt.Fprintf(&b, "%-10s", "geomean")
		for _, c := range t.Columns {
			if v, ok := t.GeoMean[c]; ok {
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
// format: one row per benchmark, geomean last).
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
	if len(t.GeoMean) > 0 {
		b.WriteString("geomean")
		for _, c := range t.Columns {
			if v, ok := t.GeoMean[c]; ok {
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
	if len(t.GeoMean) > 0 {
		b.WriteString("| **geomean** |")
		for _, c := range t.Columns {
			if v, ok := t.GeoMean[c]; ok {
				fmt.Fprintf(&b, " **%.3f** |", v)
			} else {
				b.WriteString(" |")
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func geomean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range vs {
		sum += math.Log(v)
	}
	return math.Exp(sum / float64(len(vs)))
}

// Every table builder is two-phase: it first submits all of its simulation
// cells to the engine (fanning them out across the worker pool), then
// collects futures in row order. Collection order fixes the table layout, so
// output is identical for any worker count; a cell that fails panics out of
// the builder (Future.Must) and cmd/fsexp recovers per experiment.

// Fig2ManualFix reproduces Figure 2: the speedup achieved by manually fixing
// false sharing (padded layouts) over the unmodified baseline protocol.
func Fig2ManualFix(r *Runner, scale float64) *Table {
	t := &Table{ID: "Fig 2", Title: "Speedup after manually fixing false sharing (baseline MESI)",
		Columns: []string{"manual"}, GeoMean: map[string]float64{}}
	benches := FalseSharingBenchmarks()
	base := r.SubmitBenches(benches, Options{Protocol: Baseline, Scale: scale})
	man := r.SubmitBenches(benches, Options{Protocol: Baseline, Variant: LayoutPadded, Scale: scale})
	var sp []float64
	for i, b := range benches {
		s := man[i].Must().Speedup(base[i].Must())
		sp = append(sp, s)
		t.Rows = append(t.Rows, TableRow{Name: b, Values: map[string]float64{"manual": s}})
	}
	t.GeoMean["manual"] = geomean(sp)
	return t
}

// Fig13MissFractions reproduces Figure 13: the fraction of L1D accesses that
// miss, for the false-sharing benchmarks under the baseline protocol.
func Fig13MissFractions(r *Runner, scale float64) *Table {
	t := &Table{ID: "Fig 13", Title: "Fraction of L1D accesses that miss (baseline)",
		Columns: []string{"miss-fraction"}, GeoMean: map[string]float64{}}
	benches := FalseSharingBenchmarks()
	cells := r.SubmitBenches(benches, Options{Protocol: Baseline, Scale: scale})
	sum := 0.0
	for i, b := range benches {
		res := cells[i].Must()
		t.Rows = append(t.Rows, TableRow{Name: b, Values: map[string]float64{"miss-fraction": res.MissFraction}})
		sum += res.MissFraction
	}
	// The paper reports the arithmetic mean for Fig. 13.
	t.GeoMean["miss-fraction"] = sum / float64(len(t.Rows))
	return t
}

// Fig14Speedup reproduces Figure 14a: FSDetect and FSLite speedups over the
// baseline for the false-sharing benchmarks.
func Fig14Speedup(r *Runner, scale float64) *Table {
	t := &Table{ID: "Fig 14a", Title: "Speedup of FSDetect and FSLite over baseline",
		Columns: []string{"fsdetect", "fslite"}, GeoMean: map[string]float64{}}
	benches := FalseSharingBenchmarks()
	base := r.SubmitBenches(benches, Options{Protocol: Baseline, Scale: scale})
	det := r.SubmitBenches(benches, Options{Protocol: FSDetect, Scale: scale})
	fsl := r.SubmitBenches(benches, Options{Protocol: FSLite, Scale: scale})
	var sd, sl []float64
	for i, b := range benches {
		b0 := base[i].Must()
		vd, vl := det[i].Must().Speedup(b0), fsl[i].Must().Speedup(b0)
		sd = append(sd, vd)
		sl = append(sl, vl)
		t.Rows = append(t.Rows, TableRow{Name: b, Values: map[string]float64{"fsdetect": vd, "fslite": vl}})
	}
	t.GeoMean["fsdetect"] = geomean(sd)
	t.GeoMean["fslite"] = geomean(sl)
	return t
}

// Fig14Energy reproduces Figure 14b: cache-hierarchy energy of FSDetect and
// FSLite normalized to the baseline.
func Fig14Energy(r *Runner, scale float64) *Table {
	t := &Table{ID: "Fig 14b", Title: "Normalized energy of FSDetect and FSLite",
		Columns: []string{"fsdetect", "fslite"}, GeoMean: map[string]float64{}}
	benches := FalseSharingBenchmarks()
	base := r.SubmitBenches(benches, Options{Protocol: Baseline, Scale: scale})
	det := r.SubmitBenches(benches, Options{Protocol: FSDetect, Scale: scale})
	fsl := r.SubmitBenches(benches, Options{Protocol: FSLite, Scale: scale})
	var ed, el []float64
	for i, b := range benches {
		b0 := base[i].Must()
		vd, vl := det[i].Must().NormalizedEnergy(b0), fsl[i].Must().NormalizedEnergy(b0)
		ed = append(ed, vd)
		el = append(el, vl)
		t.Rows = append(t.Rows, TableRow{Name: b, Values: map[string]float64{"fsdetect": vd, "fslite": vl}})
	}
	t.GeoMean["fsdetect"] = geomean(ed)
	t.GeoMean["fslite"] = geomean(el)
	return t
}

// Fig15NoFalseSharing reproduces Figure 15: FSLite speedup and normalized
// energy for the applications without false sharing.
func Fig15NoFalseSharing(r *Runner, scale float64) *Table {
	t := &Table{ID: "Fig 15", Title: "FSLite on applications without false sharing",
		Columns: []string{"speedup", "energy"}, GeoMean: map[string]float64{}}
	benches := NoFalseSharingBenchmarks()
	base := r.SubmitBenches(benches, Options{Protocol: Baseline, Scale: scale})
	fsl := r.SubmitBenches(benches, Options{Protocol: FSLite, Scale: scale})
	var sp, en []float64
	for i, b := range benches {
		b0, f0 := base[i].Must(), fsl[i].Must()
		s, e := f0.Speedup(b0), f0.NormalizedEnergy(b0)
		sp = append(sp, s)
		en = append(en, e)
		t.Rows = append(t.Rows, TableRow{Name: b, Values: map[string]float64{"speedup": s, "energy": e}})
	}
	t.GeoMean["speedup"] = geomean(sp)
	t.GeoMean["energy"] = geomean(en)
	return t
}

// Fig16TauP reproduces Figure 16: FSLite with privatization thresholds 32
// and 64, relative to the default threshold of 16.
func Fig16TauP(r *Runner, scale float64) *Table {
	t := &Table{ID: "Fig 16", Title: "FSLite sensitivity to the privatization threshold tauP (relative to tauP=16)",
		Columns: []string{"tauP=32", "tauP=64"}, GeoMean: map[string]float64{}}
	benches := []string{"BS", "LL", "LR", "LT", "RC", "SF", "SM"} // SC excluded (§VIII-B)
	ref := r.SubmitBenches(benches, Options{Protocol: FSLite, Scale: scale})
	t32 := r.SubmitBenches(benches, Options{Protocol: FSLite, TauP: 32, Scale: scale})
	t64 := r.SubmitBenches(benches, Options{Protocol: FSLite, TauP: 64, Scale: scale})
	var s32s, s64s []float64
	for i, b := range benches {
		r0 := ref[i].Must()
		v32, v64 := t32[i].Must().Speedup(r0), t64[i].Must().Speedup(r0)
		s32s = append(s32s, v32)
		s64s = append(s64s, v64)
		t.Rows = append(t.Rows, TableRow{Name: b, Values: map[string]float64{"tauP=32": v32, "tauP=64": v64}})
	}
	t.GeoMean["tauP=32"] = geomean(s32s)
	t.GeoMean["tauP=64"] = geomean(s64s)
	return t
}

// Fig17Huron reproduces Figure 17: manual fix, Huron and FSLite speedups
// over baseline for the Huron-artifact benchmarks.
func Fig17Huron(r *Runner, scale float64) *Table {
	t := &Table{ID: "Fig 17", Title: "Manual fix vs Huron vs FSLite (speedup over baseline)",
		Columns: []string{"manual", "huron", "fslite"}, GeoMean: map[string]float64{}}
	benches := HuronBenchmarks()
	base := r.SubmitBenches(benches, Options{Protocol: Baseline, Scale: scale})
	man := r.SubmitBenches(benches, Options{Protocol: Baseline, Variant: LayoutPadded, Scale: scale})
	hur := r.SubmitBenches(benches, Options{Protocol: Baseline, Variant: LayoutHuron, Scale: scale})
	fsl := r.SubmitBenches(benches, Options{Protocol: FSLite, Scale: scale})
	var sm, sh, sl []float64
	for i, b := range benches {
		b0 := base[i].Must()
		vm, vh, vl := man[i].Must().Speedup(b0), hur[i].Must().Speedup(b0), fsl[i].Must().Speedup(b0)
		sm = append(sm, vm)
		sh = append(sh, vh)
		sl = append(sl, vl)
		t.Rows = append(t.Rows, TableRow{Name: b, Values: map[string]float64{"manual": vm, "huron": vh, "fslite": vl}})
	}
	t.GeoMean["manual"] = geomean(sm)
	t.GeoMean["huron"] = geomean(sh)
	t.GeoMean["fslite"] = geomean(sl)
	return t
}

// NetworkTraffic reproduces the §VIII-B interconnect study: the reduction in
// L1-originated request messages and total traffic under FSLite, plus the
// metadata overhead.
func NetworkTraffic(r *Runner, scale float64) *Table {
	t := &Table{ID: "Net", Title: "FSLite interconnect traffic relative to baseline (false-sharing apps)",
		Columns: []string{"requests", "messages", "bytes", "metadata-share"}, GeoMean: map[string]float64{}}
	benches := FalseSharingBenchmarks()
	base := r.SubmitBenches(benches, Options{Protocol: Baseline, Scale: scale})
	fsl := r.SubmitBenches(benches, Options{Protocol: FSLite, Scale: scale})
	var rq, ms, by []float64
	for i, b := range benches {
		b0, f0 := base[i].Must(), fsl[i].Must()
		reqRatio := float64(f0.Stats.Get("net.msg.request")) / float64(b0.Stats.Get("net.msg.request"))
		msgRatio := float64(f0.Stats.Get(stats.CtrNetMessages)) / float64(b0.Stats.Get(stats.CtrNetMessages))
		byteRatio := float64(f0.Stats.Get(stats.CtrNetBytes)) / float64(b0.Stats.Get(stats.CtrNetBytes))
		mdShare := float64(f0.Stats.Get("net.msg.metadata")) / float64(f0.Stats.Get(stats.CtrNetMessages))
		rq = append(rq, reqRatio)
		ms = append(ms, msgRatio)
		by = append(by, byteRatio)
		t.Rows = append(t.Rows, TableRow{Name: b, Values: map[string]float64{
			"requests": reqRatio, "messages": msgRatio, "bytes": byteRatio, "metadata-share": mdShare,
		}})
	}
	t.GeoMean["requests"] = geomean(rq)
	t.GeoMean["messages"] = geomean(ms)
	t.GeoMean["bytes"] = geomean(by)
	return t
}

// SAMSizeSensitivity reproduces the §VIII-B SAM-table study: FSLite with a
// 256-entry SAM table relative to the default 128 entries, plus the fraction
// of SAM insertions that replaced a valid entry.
func SAMSizeSensitivity(r *Runner, scale float64) *Table {
	t := &Table{ID: "SAM", Title: "FSLite sensitivity to SAM table size (256 vs 128 entries)",
		Columns: []string{"speedup-256", "replace-frac-128"}, GeoMean: map[string]float64{}}
	benches := FalseSharingBenchmarks()
	ref := r.SubmitBenches(benches, Options{Protocol: FSLite, Scale: scale})
	big := r.SubmitBenches(benches, Options{Protocol: FSLite, SAMEntries: 256, Scale: scale})
	var sp []float64
	for i, b := range benches {
		r0 := ref[i].Must()
		v := big[i].Must().Speedup(r0)
		repl := r0.Stats.Ratio(stats.CtrSAMReplacements, stats.CtrSAMLookups)
		sp = append(sp, v)
		t.Rows = append(t.Rows, TableRow{Name: b, Values: map[string]float64{
			"speedup-256": v, "replace-frac-128": repl,
		}})
	}
	t.GeoMean["speedup-256"] = geomean(sp)
	return t
}

// ReaderOptStudy reproduces the §VI/§VIII-B reader-metadata optimization
// study: FSLite with the last-reader+overflow SAM encoding must privatize
// the same blocks and match the performance of the full reader bit-vector.
func ReaderOptStudy(r *Runner, scale float64) *Table {
	t := &Table{ID: "ReaderOpt", Title: "Reader metadata optimization (last-reader+overflow vs full bit-vector)",
		Columns: []string{"speedup", "privatizations-ratio"}, GeoMean: map[string]float64{}}
	benches := FalseSharingBenchmarks()
	full := r.SubmitBenches(benches, Options{Protocol: FSLite, Scale: scale})
	opt := r.SubmitBenches(benches, Options{Protocol: FSLite, ReaderOpt: true, Scale: scale})
	var sp []float64
	for i, b := range benches {
		f0, o0 := full[i].Must(), opt[i].Must()
		v := o0.Speedup(f0)
		pr := 1.0
		if p := f0.Stats.Get(stats.CtrFSPrivatized); p > 0 {
			pr = float64(o0.Stats.Get(stats.CtrFSPrivatized)) / float64(p)
		}
		sp = append(sp, v)
		t.Rows = append(t.Rows, TableRow{Name: b, Values: map[string]float64{
			"speedup": v, "privatizations-ratio": pr,
		}})
	}
	t.GeoMean["speedup"] = geomean(sp)
	return t
}

// GranularityStudy reproduces the §VIII-B coarse-grain tracking study:
// FSLite with 2- and 4-byte metadata grains relative to byte-grain tracking.
func GranularityStudy(r *Runner, scale float64) *Table {
	t := &Table{ID: "Grain", Title: "FSLite with coarse-grain access tracking (relative to 1-byte grain)",
		Columns: []string{"grain=2", "grain=4"}, GeoMean: map[string]float64{}}
	benches := FalseSharingBenchmarks()
	ref := r.SubmitBenches(benches, Options{Protocol: FSLite, Scale: scale})
	g2 := r.SubmitBenches(benches, Options{Protocol: FSLite, Granularity: 2, Scale: scale})
	g4 := r.SubmitBenches(benches, Options{Protocol: FSLite, Granularity: 4, Scale: scale})
	var g2s, g4s []float64
	for i, b := range benches {
		r0 := ref[i].Must()
		v2, v4 := g2[i].Must().Speedup(r0), g4[i].Must().Speedup(r0)
		g2s = append(g2s, v2)
		g4s = append(g4s, v4)
		t.Rows = append(t.Rows, TableRow{Name: b, Values: map[string]float64{"grain=2": v2, "grain=4": v4}})
	}
	t.GeoMean["grain=2"] = geomean(g2s)
	t.GeoMean["grain=4"] = geomean(g4s)
	return t
}

// ISOStorageStudy reproduces the §VIII-B iso-storage comparison: FSLite with
// a 32 KB L1D against the baseline protocol with a 128 KB L1D, across all 14
// applications.
func ISOStorageStudy(r *Runner, scale float64) *Table {
	t := &Table{ID: "ISO", Title: "FSLite@32KB L1D vs baseline@128KB L1D (all applications)",
		Columns: []string{"speedup"}, GeoMean: map[string]float64{}}
	all := append(append([]string{}, FalseSharingBenchmarks()...), NoFalseSharingBenchmarks()...)
	big := r.SubmitBenches(all, Options{Protocol: Baseline, L1KB: 128, Scale: scale})
	fsl := r.SubmitBenches(all, Options{Protocol: FSLite, Scale: scale})
	var sp []float64
	for i, b := range all {
		v := fsl[i].Must().Speedup(big[i].Must())
		sp = append(sp, v)
		t.Rows = append(t.Rows, TableRow{Name: b, Values: map[string]float64{"speedup": v}})
	}
	t.GeoMean["speedup"] = geomean(sp)
	return t
}

// LargeL1Study reproduces the §VIII-B large-private-cache study: FSLite's
// speedup with a 512 KB L1D (mimicking a mid-level cache).
func LargeL1Study(r *Runner, scale float64) *Table {
	t := &Table{ID: "BigL1", Title: "FSLite speedup with a 512KB private cache (false-sharing apps)",
		Columns: []string{"speedup"}, GeoMean: map[string]float64{}}
	benches := FalseSharingBenchmarks()
	base := r.SubmitBenches(benches, Options{Protocol: Baseline, L1KB: 512, Scale: scale})
	fsl := r.SubmitBenches(benches, Options{Protocol: FSLite, L1KB: 512, Scale: scale})
	var sp []float64
	for i, b := range benches {
		v := fsl[i].Must().Speedup(base[i].Must())
		sp = append(sp, v)
		t.Rows = append(t.Rows, TableRow{Name: b, Values: map[string]float64{"speedup": v}})
	}
	t.GeoMean["speedup"] = geomean(sp)
	return t
}

// ThreeLevelStudy exercises the §VII three-level hierarchy: a 256 KB
// private L2 per core between the L1D and the LLC. The paper argues FSLite's
// benefit is unchanged (metadata stays at the L1; the PAM-eviction traffic
// is a few percent of L1-to-LLC traffic).
func ThreeLevelStudy(r *Runner, scale float64) *Table {
	t := &Table{ID: "L2", Title: "FSLite with a 256KB private L2 per core (three-level hierarchy)",
		Columns: []string{"speedup", "metadata-share"}, GeoMean: map[string]float64{}}
	benches := FalseSharingBenchmarks()
	base := r.SubmitBenches(benches, Options{Protocol: Baseline, L2KB: 256, Scale: scale})
	fsl := r.SubmitBenches(benches, Options{Protocol: FSLite, L2KB: 256, Scale: scale})
	var sp []float64
	for i, b := range benches {
		f0 := fsl[i].Must()
		v := f0.Speedup(base[i].Must())
		mdShare := float64(f0.Stats.Get("net.msg.metadata")) / float64(f0.Stats.Get(stats.CtrNetMessages))
		sp = append(sp, v)
		t.Rows = append(t.Rows, TableRow{Name: b, Values: map[string]float64{
			"speedup": v, "metadata-share": mdShare,
		}})
	}
	t.GeoMean["speedup"] = geomean(sp)
	return t
}

// OOOStudy reproduces the §VIII-B out-of-order study: the 8-wide OOO
// baseline's speedup over the in-order baseline, and FSLite's speedup on top
// of the OOO baseline.
func OOOStudy(r *Runner, scale float64) *Table {
	t := &Table{ID: "OOO", Title: "8-wide out-of-order cores: OOO-baseline/in-order and FSLite/OOO-baseline",
		Columns: []string{"ooo-vs-inorder", "fslite-on-ooo"}, GeoMean: map[string]float64{}}
	// The paper could run six of the eight FS applications in SE mode.
	benches := []string{"BS", "LL", "LR", "LT", "RC", "SM"}
	inord := r.SubmitBenches(benches, Options{Protocol: Baseline, Scale: scale})
	ooo := r.SubmitBenches(benches, Options{Protocol: Baseline, OOO: true, Scale: scale})
	fsl := r.SubmitBenches(benches, Options{Protocol: FSLite, OOO: true, Scale: scale})
	var oi, fo []float64
	for i, b := range benches {
		o0 := ooo[i].Must()
		v1, v2 := o0.Speedup(inord[i].Must()), fsl[i].Must().Speedup(o0)
		oi = append(oi, v1)
		fo = append(fo, v2)
		t.Rows = append(t.Rows, TableRow{Name: b, Values: map[string]float64{"ooo-vs-inorder": v1, "fslite-on-ooo": v2}})
	}
	t.GeoMean["ooo-vs-inorder"] = geomean(oi)
	t.GeoMean["fslite-on-ooo"] = geomean(fo)
	return t
}

// DoSStudy quantifies the introduction's denial-of-service observation: a
// program with a very high volume of falsely shared blocks floods the
// interconnect with invalidations and interventions; FSLite defuses the
// attack by privatizing the contended lines.
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

// TableVRunTimes reproduces Table V's role (per-application run times) with
// simulated cycles per benchmark and protocol.
func TableVRunTimes(r *Runner, scale float64) *Table {
	t := &Table{ID: "Table V", Title: "Simulated cycles per application (baseline / FSLite)",
		Columns: []string{"baseline-cycles", "fslite-cycles"}}
	all := append(append([]string{}, NoFalseSharingBenchmarks()...), FalseSharingBenchmarks()...)
	sort.Strings(all)
	base := r.SubmitBenches(all, Options{Protocol: Baseline, Scale: scale})
	fsl := r.SubmitBenches(all, Options{Protocol: FSLite, Scale: scale})
	for i, b := range all {
		t.Rows = append(t.Rows, TableRow{Name: b, Values: map[string]float64{
			"baseline-cycles": float64(base[i].Must().Cycles), "fslite-cycles": float64(fsl[i].Must().Cycles),
		}})
	}
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
	{"fig2", Fig2ManualFix, "manual-fix speedups"},
	{"fig13", Fig13MissFractions, "L1D miss fractions"},
	{"fig14a", Fig14Speedup, "FSDetect/FSLite speedups"},
	{"fig14b", Fig14Energy, "normalized energy"},
	{"fig15", Fig15NoFalseSharing, "no-false-sharing applications"},
	{"fig16", Fig16TauP, "tauP sensitivity"},
	{"fig17", Fig17Huron, "Huron comparison"},
	{"net", NetworkTraffic, "interconnect traffic"},
	{"sam", SAMSizeSensitivity, "SAM table size"},
	{"readeropt", ReaderOptStudy, "reader metadata optimization"},
	{"grain", GranularityStudy, "coarse-grain tracking"},
	{"iso", ISOStorageStudy, "iso-storage 128KB baseline"},
	{"bigl1", LargeL1Study, "512KB private caches"},
	{"l2", ThreeLevelStudy, "three-level hierarchy (private L2)"},
	{"dos", DoSStudy, "interconnect DoS mitigation"},
	{"ooo", OOOStudy, "out-of-order cores"},
	{"tablev", TableVRunTimes, "per-application run times"},
}
