// Package forensics is the per-cache-line flight recorder: a consumer of
// the run's obs event stream that folds the detector's decisions (detect,
// contended, privatize, abort, merge, terminate), commits, demand misses and
// directory invalidations into per-line byte×core access heatmaps, a
// decision timeline with causes, and repair-efficacy attribution
// (invalidations and misses on a line before vs. after its first
// privatization).
//
// It also defines the workload ground-truth vocabulary: generators label
// every allocated line as private, truly shared or falsely shared *by
// construction*, and Score compares the detector's classifications against
// those labels to produce the reproduction's precision/recall and
// time-to-detection figures.
//
// The simulator knows nothing of the recorder: Record is installed as the
// tap of a run's tracer (obs.Tracer.SetTap), so the recorder sees every
// event whatever the tracer's filter and ring capacity, and a run without a
// recorder pays nothing for it. The recorder is not safe for concurrent
// use; attach one recorder per run (the simulator is single-threaded per
// run, and a *Recorder field keeps Options comparable for runner
// memoization).
package forensics

import (
	"sort"

	"fscoherence/internal/memsys"
	"fscoherence/internal/network"
	"fscoherence/internal/obs"
)

// Label classifies a cache line's sharing structure by construction.
// Labels are bitmasks: a line can legitimately be both falsely and truly
// shared (e.g. a packed spinlock pool), in which case neither a detection
// nor its absence is scored.
type Label uint8

const (
	// LabelPrivate marks lines accessed by at most one core.
	LabelPrivate Label = 1 << iota
	// LabelShared marks truly shared lines (the same bytes are accessed by
	// several cores: locks, barriers, shared counters, read-shared data).
	LabelShared
	// LabelFalse marks falsely shared lines (disjoint bytes of one line are
	// accessed by different cores).
	LabelFalse
)

func (l Label) String() string {
	switch l {
	case LabelPrivate:
		return "private"
	case LabelShared:
		return "true-sharing"
	case LabelFalse:
		return "false-sharing"
	case LabelShared | LabelFalse:
		return "mixed"
	case 0:
		return "unlabeled"
	}
	return "mixed"
}

// GroundTruth maps cache-line addresses to construction-time labels.
type GroundTruth struct {
	// BlockSize is the line size the labels were assigned at.
	BlockSize int

	lines map[memsys.Addr]Label
}

// NewGroundTruth returns an empty label set for the given line size.
func NewGroundTruth(blockSize int) *GroundTruth {
	return &GroundTruth{BlockSize: blockSize, lines: map[memsys.Addr]Label{}}
}

// Mark labels every line overlapping [addr, addr+size), replacing any prior
// label (generators call it last-writer-wins: implicit allocator labels
// first, explicit workload knowledge second).
func (g *GroundTruth) Mark(addr memsys.Addr, size int, l Label) {
	if g == nil || size <= 0 {
		return
	}
	first := addr.BlockAlign(g.BlockSize)
	last := (addr + memsys.Addr(size) - 1).BlockAlign(g.BlockSize)
	for a := first; a <= last; a += memsys.Addr(g.BlockSize) {
		g.lines[a] = l
	}
}

// Label returns the line's label (0 = unlabeled).
func (g *GroundTruth) Label(line memsys.Addr) Label {
	if g == nil {
		return 0
	}
	return g.lines[line.BlockAlign(g.BlockSize)]
}

// Lines returns every labeled line address in increasing order.
func (g *GroundTruth) Lines() []memsys.Addr {
	if g == nil {
		return nil
	}
	out := make([]memsys.Addr, 0, len(g.lines))
	for a := range g.lines {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Count returns the number of lines labeled exactly l.
func (g *GroundTruth) Count(l Label) int {
	if g == nil {
		return 0
	}
	n := 0
	for _, v := range g.lines {
		if v == l {
			n++
		}
	}
	return n
}

// DecisionKind enumerates the recorded protocol decisions.
type DecisionKind uint8

const (
	// DecDetect: the detector classified the line as falsely shared.
	DecDetect DecisionKind = iota
	// DecContended: the detector classified the line as contended
	// truly-shared (§VII).
	DecContended
	// DecPrvBegin: a privatized episode began on the line.
	DecPrvBegin
	// DecPrvAbort: a privatization initiation aborted mid-flight.
	DecPrvAbort
	// DecPrvTerminate: a privatized episode terminated (Cause holds the
	// reason: conflict, abort, evict, forced, end; Arg the episode length).
	DecPrvTerminate
	// DecPrvMerge: one core's privatized copy was byte-merged back.
	DecPrvMerge
)

func (k DecisionKind) String() string {
	switch k {
	case DecDetect:
		return "detect"
	case DecContended:
		return "contended"
	case DecPrvBegin:
		return "prv-begin"
	case DecPrvAbort:
		return "prv-abort"
	case DecPrvTerminate:
		return "prv-terminate"
	case DecPrvMerge:
		return "prv-merge"
	}
	return "?"
}

// Decision is one timeline entry for a line.
type Decision struct {
	Cycle uint64
	Kind  DecisionKind
	// Core is the core the decision attributes (-1 when none).
	Core int
	// Cause labels the decision (termination reason; empty otherwise).
	Cause string
	// Arg carries a kind-specific value (episode number for detect,
	// episode length in cycles for prv-terminate).
	Arg uint64
}

// Line is the flight record of one cache line.
type Line struct {
	Addr memsys.Addr

	// FirstCycle/LastCycle bound the line's committed accesses.
	FirstCycle uint64
	LastCycle  uint64

	// Reads/Writes count committed accesses by kind.
	Reads  uint64
	Writes uint64

	// Timeline lists the protocol decisions on the line in cycle order.
	Timeline []Decision

	// Repair-efficacy attribution: invalidation messages targeting the
	// line and demand misses on it, split at the line's first
	// privatization. A repaired line should show the After rates collapse.
	InvBefore  uint64
	InvAfter   uint64
	MissBefore uint64
	MissAfter  uint64

	// MissCycles sums demand-miss latencies on the line (Before/After
	// split like the counts).
	MissCyclesBefore uint64
	MissCyclesAfter  uint64

	// PrvCycle is the cycle of the first privatization (0 = never
	// privatized; PrvEpisodes disambiguates a real cycle-0 begin).
	PrvCycle    uint64
	PrvEpisodes int

	heat  [][]uint64 // [core][byte] committed-access counts
	wmask [4]uint64  // cores that wrote the line (memsys.MaxCores bits)
	rmask [4]uint64  // cores that read the line
}

// Heat returns the byte-access counts committed by core (nil when the core
// never touched the line). The slice is indexed by byte offset.
func (ln *Line) Heat(core int) []uint64 {
	if core < 0 || core >= len(ln.heat) {
		return nil
	}
	return ln.heat[core]
}

// Cores returns the cores that touched the line, in increasing order.
func (ln *Line) Cores() []int {
	var out []int
	for c := range ln.heat {
		if ln.heat[c] != nil {
			out = append(out, c)
		}
	}
	return out
}

// Writers returns the cores that wrote the line, in increasing order.
func (ln *Line) Writers() []int { return maskCores(&ln.wmask) }

// Readers returns the cores that read the line, in increasing order.
func (ln *Line) Readers() []int { return maskCores(&ln.rmask) }

func maskCores(m *[4]uint64) []int {
	var out []int
	for w, bits := range m {
		for b := 0; bits != 0; b, bits = b+1, bits>>1 {
			if bits&1 != 0 {
				out = append(out, w*64+b)
			}
		}
	}
	return out
}

// Contended reports whether the line was touched by at least two cores and
// written at least once during the run — the precondition for the detector
// to have anything to find. Score counts only contended FS-labeled lines as
// positives: an FS-labeled line the workload never actually contended on
// cannot be expected to be detected.
func (ln *Line) Contended() bool {
	if ln.Writes == 0 {
		return false
	}
	return len(ln.Cores()) >= 2
}

// DetectCycle returns the cycle of the first detect decision (ok=false when
// the line was never detected).
func (ln *Line) DetectCycle() (uint64, bool) {
	for _, d := range ln.Timeline {
		if d.Kind == DecDetect {
			return d.Cycle, true
		}
	}
	return 0, false
}

// Recorder is the per-run flight recorder. A nil *Recorder records nothing;
// its read methods return empty results.
type Recorder struct {
	blockSize int
	lines     map[memsys.Addr]*Line
}

// New returns an enabled, empty recorder. Begin sizes it for a run.
func New() *Recorder {
	return &Recorder{blockSize: 64, lines: map[memsys.Addr]*Line{}}
}

// Begin resets the recorder for a run with the given line size.
func (r *Recorder) Begin(blockSize int) {
	r.blockSize = blockSize
	r.lines = map[memsys.Addr]*Line{}
}

// The messages that cost a core its copy or exclusivity of a line — plain
// and PRV invalidations plus forwarded-exclusive interventions. Only
// directory slices send them.
var (
	opInv     = network.OpInv.String()
	opInvPrv  = network.OpInvPrv.String()
	opFwdGetX = network.OpFwdGetX.String()
)

// Record folds one event of the run into the flight record (install it as
// the run's tracer tap, after Begin): commits are
// accesses, KindMiss events misses, the directory's invalidating sends
// invalidations, and detector and privatization events timeline decisions.
// Every other event is ignored.
func (r *Recorder) Record(e obs.Event) {
	var d Decision
	switch e.Kind {
	case obs.KindCommit:
		r.access(e)
		return
	case obs.KindMiss:
		ln := r.line(e.Addr, e.Cycle)
		if ln.PrvEpisodes > 0 {
			ln.MissAfter++
			ln.MissCyclesAfter += e.Arg
		} else {
			ln.MissBefore++
			ln.MissCyclesBefore += e.Arg
		}
		return
	case obs.KindNetSend:
		if e.Name != opInv && e.Name != opInvPrv && e.Name != opFwdGetX {
			return
		}
		if ln := r.line(e.Addr, e.Cycle); ln.PrvEpisodes > 0 {
			ln.InvAfter++
		} else {
			ln.InvBefore++
		}
		return
	case obs.KindDetect:
		d = Decision{Kind: DecDetect, Core: -1, Arg: e.Arg}
	case obs.KindContended:
		d = Decision{Kind: DecContended, Core: -1, Arg: e.Arg}
	case obs.KindPrvBegin:
		d = Decision{Kind: DecPrvBegin, Core: int(e.Arg)}
	case obs.KindPrvAbort:
		d = Decision{Kind: DecPrvAbort, Core: -1}
	case obs.KindPrvMerge:
		d = Decision{Kind: DecPrvMerge, Core: int(e.Core)}
	case obs.KindPrvTerminate:
		d = Decision{Kind: DecPrvTerminate, Core: -1, Cause: e.Name, Arg: e.Arg}
	default:
		return
	}
	d.Cycle = e.Cycle
	ln := r.line(e.Addr, e.Cycle)
	ln.Timeline = append(ln.Timeline, d)
	if d.Kind == DecPrvBegin {
		if ln.PrvEpisodes == 0 {
			ln.PrvCycle = e.Cycle
		}
		ln.PrvEpisodes++
	}
}

// BlockSize returns the line size the recorder was sized for.
func (r *Recorder) BlockSize() int {
	if r == nil {
		return 0
	}
	return r.blockSize
}

func (r *Recorder) line(blk memsys.Addr, cycle uint64) *Line {
	ln := r.lines[blk]
	if ln == nil {
		ln = &Line{Addr: blk, FirstCycle: cycle}
		r.lines[blk] = ln
	}
	return ln
}

// access records one committed access (a commit event).
func (r *Recorder) access(e obs.Event) {
	ln := r.line(e.Addr.BlockAlign(r.blockSize), e.Cycle)
	ln.LastCycle = e.Cycle
	core := int(e.Core)
	if e.Name != "load" {
		ln.Writes++
		setCore(&ln.wmask, core)
	} else {
		ln.Reads++
		setCore(&ln.rmask, core)
	}
	if core < 0 {
		return
	}
	if core >= len(ln.heat) {
		grown := make([][]uint64, core+1)
		copy(grown, ln.heat)
		ln.heat = grown
	}
	row := ln.heat[core]
	if row == nil {
		row = make([]uint64, r.blockSize)
		ln.heat[core] = row
	}
	off, size := e.Addr.BlockOffset(r.blockSize), int(e.Arg2)
	for i := 0; i < size && off+i < len(row); i++ {
		row[off+i]++
	}
}

func setCore(m *[4]uint64, core int) {
	if core >= 0 && core < 256 {
		m[core/64] |= 1 << (core % 64)
	}
}

// Lines returns every recorded line, sorted by address.
func (r *Recorder) Lines() []*Line {
	if r == nil {
		return nil
	}
	out := make([]*Line, 0, len(r.lines))
	for _, ln := range r.lines {
		out = append(out, ln)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Addr < out[j].Addr })
	return out
}

// Line returns the record for the line containing a (nil when untouched).
func (r *Recorder) Line(a memsys.Addr) *Line {
	if r == nil {
		return nil
	}
	return r.lines[a.BlockAlign(r.blockSize)]
}

// Accuracy scores the detector's classifications against workload ground
// truth. Positives are the FS-labeled lines the run actually contended on
// (see Line.Contended); lines labeled both falsely and truly shared are
// ambiguous by construction and excluded from both precision and recall.
type Accuracy struct {
	// LabeledFS counts all FS-labeled lines; Positives the contended
	// subset scored for recall.
	LabeledFS int
	Positives int

	TP int // detected, FS-labeled, contended
	FP int // detected but labeled private or truly shared
	FN int // contended FS-labeled lines never detected

	// Mixed counts detections on FS|TS-labeled lines (not scored);
	// Unlabeled counts detections outside the ground truth (not scored).
	Mixed     int
	Unlabeled int

	Precision float64 // TP / (TP+FP); 1.0 when nothing is scored
	Recall    float64 // TP / Positives; 1.0 when no positives

	// MeanTTD is the mean time-to-detection over true positives: cycles
	// from the line's first access to its first detect decision.
	MeanTTD float64
}

// Score computes detection accuracy from a run's flight record and the
// workload's ground truth. Detections are the DecDetect entries on the
// recorder's timelines (recorded in both FSDetect and FSLite modes).
func Score(r *Recorder, gt *GroundTruth) Accuracy {
	var a Accuracy
	if r == nil || gt == nil {
		a.Precision, a.Recall = 1, 1
		return a
	}
	var ttdSum uint64
	for _, addr := range gt.Lines() {
		label := gt.Label(addr)
		ln := r.Line(addr)
		if label == LabelFalse {
			a.LabeledFS++
		}
		detected := false
		var detectAt uint64
		if ln != nil {
			detectAt, detected = ln.DetectCycle()
		}
		switch {
		case label == LabelFalse && ln != nil && ln.Contended():
			a.Positives++
			if detected {
				a.TP++
				ttdSum += detectAt - ln.FirstCycle
			} else {
				a.FN++
			}
		case detected && label == LabelShared|LabelFalse:
			a.Mixed++
		case detected: // private, truly shared, or uncontended FS label
			a.FP++
		}
	}
	// Detections on lines outside the ground truth (stack, runtime, ...):
	// not judgeable, reported separately.
	for _, ln := range r.Lines() {
		if _, ok := ln.DetectCycle(); ok && gt.Label(ln.Addr) == 0 {
			a.Unlabeled++
		}
	}
	a.Precision, a.Recall = 1, 1
	if a.TP+a.FP > 0 {
		a.Precision = float64(a.TP) / float64(a.TP+a.FP)
	}
	if a.Positives > 0 {
		a.Recall = float64(a.TP) / float64(a.Positives)
	}
	if a.TP > 0 {
		a.MeanTTD = float64(ttdSum) / float64(a.TP)
	}
	return a
}
