package core

import (
	"sort"

	"fscoherence/internal/coherence"
	"fscoherence/internal/memsys"
	"fscoherence/internal/obs"
	"fscoherence/internal/stats"
)

// dirMeta carries the per-directory-entry counters of fig. 5c.
type dirMeta struct {
	fc      uint32 // fetch counter (7-bit, saturating)
	ic      uint32 // invalidation/intervention counter (7-bit, saturating)
	pmmc    int    // pending metadata message counter
	hc      uint8  // 2-bit saturating hysteresis counter (§VI)
	flagged bool   // identified as potentially falsely shared
	prv     bool   // currently privatized (FC/IC updates disabled, §V)
}

// Detection describes one detected instance of harmful false sharing — the
// FSDetect report a programmer (or FSLite) consumes.
type Detection struct {
	Addr     memsys.Addr
	Cycle    uint64
	Writers  []int // cores holding a valid last-writer slot at flag time
	Readers  []int // cores recorded as readers at flag time
	Episodes int   // times this block crossed the thresholds
}

// DirSide implements coherence.DirPolicy for one LLC/directory slice: the SAM
// table plus the FC/IC/PMMC/HC counters and the detection and privatization
// policy of §IV–§VI.
type DirSide struct {
	cfg   Config
	slice int
	sam   *SAM
	meta  map[memsys.Addr]*dirMeta
	stats *stats.Set

	detections map[memsys.Addr]*Detection

	// contended records truly shared lines that cross the same frequency
	// thresholds — the §VII "utility beyond false sharing" extension that
	// identifies contended synchronization variables.
	contended map[memsys.Addr]*Detection

	// reductions holds the declared reduction regions (§VII).
	reductions []coherence.AddrRange
}

var _ coherence.DirPolicy = (*DirSide)(nil)

// NewDirSide builds the directory-side policy for one slice.
func NewDirSide(cfg Config, slice int, st *stats.Set) *DirSide {
	cfg.validate()
	d := &DirSide{
		cfg:        cfg,
		slice:      slice,
		sam:        NewSAM(cfg, slice, st),
		meta:       make(map[memsys.Addr]*dirMeta),
		stats:      st,
		detections: make(map[memsys.Addr]*Detection),
		contended:  make(map[memsys.Addr]*Detection),
	}
	d.sam.isPrv = func(a memsys.Addr) bool {
		m := d.meta[a]
		return m != nil && m.prv
	}
	return d
}

func (d *DirSide) metaFor(addr memsys.Addr) *dirMeta {
	blk := addr.BlockAlign(d.cfg.BlockSize)
	m := d.meta[blk]
	if m == nil {
		m = &dirMeta{}
		d.meta[blk] = m
	}
	return m
}

// OnFetchRequest updates FC and returns the REQ_MD and privatization
// directives for a demand request (§IV).
func (d *DirSide) OnFetchRequest(addr memsys.Addr, core int) (requestMD, privatize bool) {
	m := d.metaFor(addr)
	if m.prv {
		return false, false // FC/IC disabled in PRV (§V)
	}
	if m.fc < d.cfg.CounterMax {
		m.fc++
	}
	d.evaluate(addr, m)
	return d.WantMetadata(addr), m.flagged && d.cfg.Mode == coherence.FSLite
}

// OnInvalidationsSent updates IC (§IV).
func (d *DirSide) OnInvalidationsSent(addr memsys.Addr, n int) {
	m := d.metaFor(addr)
	if m.prv {
		return
	}
	for i := 0; i < n && m.ic < d.cfg.CounterMax; i++ {
		m.ic++
	}
	d.evaluate(addr, m)
}

// evaluate applies the threshold, reset and hysteresis rules (§IV, §VI)
// after a counter update.
func (d *DirSide) evaluate(addr memsys.Addr, m *dirMeta) {
	// §VI: FC attaining TauR2 resets everything including the TS bit, so a
	// block whose short-lived true sharing ended (data initialization) can
	// later be privatized.
	if m.fc >= d.cfg.TauR2 {
		d.resetMetadata(addr, m, true)
		return
	}
	if m.flagged || m.fc < d.cfg.TauP || m.ic < d.cfg.TauP {
		return
	}
	ts := d.TrueSharing(addr)
	if !ts && m.hc == 0 {
		m.flagged = true
		d.recordDetection(addr)
		if d.cfg.Mode == coherence.FSDetect {
			// Detection-only mode: rearm so repeated episodes are counted.
			m.flagged = false
			m.fc, m.ic = 0, 0
		}
		return
	}
	// Crossed the thresholds but cannot privatize: decrement HC and reset
	// the metadata so the most recent access pattern is gathered (§VI).
	if m.hc > 0 && !ts {
		m.hc--
	} else if ts {
		d.stats.Inc(stats.CtrFSHysteresisBlock)
		// §VII utility beyond false sharing: a truly shared line crossing
		// the same frequency thresholds is a *contended* line — typically a
		// synchronization variable. Record it for the contention report.
		d.recordContended(addr)
	}
	d.resetMetadata(addr, m, true)
}

// resetMetadata clears FC/IC and (optionally) the SAM entry including TS.
func (d *DirSide) resetMetadata(addr memsys.Addr, m *dirMeta, clearSAM bool) {
	m.fc, m.ic = 0, 0
	if clearSAM {
		if e := d.sam.peek(addr); e != nil {
			e.clear(d.cfg)
		}
	}
	d.stats.Inc(stats.CtrFSMetadataResets)
}

// recordDetection snapshots the cores involved for the FSDetect report.
func (d *DirSide) recordDetection(addr memsys.Addr) {
	d.stats.Inc(stats.CtrFSDetected)
	blk := addr.BlockAlign(d.cfg.BlockSize)
	det := d.detections[blk]
	if det == nil {
		det = &Detection{Addr: blk, Cycle: d.cfg.now()}
		d.detections[blk] = det
	}
	det.Episodes++
	d.snapshotCores(blk, det)
	if t := d.cfg.Trace; t != nil {
		t.Emit(obs.Event{
			Cycle: d.cfg.now(), Kind: obs.KindDetect, Core: -1, Slice: int16(d.slice),
			Addr: blk, Arg: uint64(det.Episodes),
		})
	}
}

// snapshotCores unions the SAM entry's current writers/readers into the
// detection record (accumulated across episodes: a single contended word has
// only one last-writer slot at any instant).
func (d *DirSide) snapshotCores(blk memsys.Addr, det *Detection) {
	e := d.sam.peek(blk)
	if e == nil {
		return
	}
	var w, r memsys.CoreSet
	for _, c := range det.Writers {
		w.Add(c)
	}
	for _, c := range det.Readers {
		r.Add(c)
	}
	for g, lw := range e.lastWriter {
		if lw != noCore {
			w.Add(int(lw))
		}
		// With ReaderOpt only the last reader is known, which is why the
		// optimization trades away precise reporting (§VI).
		if d.cfg.ReaderOpt {
			if lr := e.lastReader[g]; lr != noCore {
				r.Add(int(lr))
			}
		} else {
			r.Union(&e.readers[g])
		}
	}
	det.Writers = coreList(det.Writers, &w)
	det.Readers = coreList(det.Readers, &r)
}

// coreList returns set's members in ascending order. set is a superset of
// prev, so prev is returned as is when set added no member to it.
func coreList(prev []int, set *memsys.CoreSet) []int {
	n := set.Count()
	if prev != nil && n == len(prev) {
		return prev
	}
	out := make([]int, 0, n)
	set.ForEach(func(c int) { out = append(out, c) })
	return out
}

// Detections returns the detected falsely-shared blocks, sorted by address.
func (d *DirSide) Detections() []Detection {
	return sortDetections(d.detections)
}

// recordContended snapshots a contended truly-shared line (§VII).
func (d *DirSide) recordContended(addr memsys.Addr) {
	d.stats.Inc(stats.CtrFSContended)
	blk := addr.BlockAlign(d.cfg.BlockSize)
	det := d.contended[blk]
	if det == nil {
		det = &Detection{Addr: blk, Cycle: d.cfg.now()}
		d.contended[blk] = det
	}
	det.Episodes++
	d.snapshotCores(blk, det)
	if t := d.cfg.Trace; t != nil {
		t.Emit(obs.Event{
			Cycle: d.cfg.now(), Kind: obs.KindContended, Core: -1, Slice: int16(d.slice),
			Addr: blk, Arg: uint64(det.Episodes),
		})
	}
}

// ContendedLines returns the truly shared lines that crossed the contention
// thresholds (typically lock words and other synchronization variables),
// sorted by address — the §VII detection extension.
func (d *DirSide) ContendedLines() []Detection {
	return sortDetections(d.contended)
}

func sortDetections(m map[memsys.Addr]*Detection) []Detection {
	out := make([]Detection, 0, len(m))
	for _, det := range m {
		out = append(out, *det)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Addr < out[j].Addr })
	return out
}

// OnMetadataRequested increments PMMC (§V).
func (d *DirSide) OnMetadataRequested(addr memsys.Addr, n int) {
	d.metaFor(addr).pmmc += n
}

// OnRepMD merges a PAM entry into the SAM entry, applying the true-sharing
// inference rules of §IV, and decrements PMMC.
func (d *DirSide) OnRepMD(addr memsys.Addr, core int, mdRead, mdWrite uint64) {
	m := d.metaFor(addr)
	if m.pmmc > 0 {
		m.pmmc--
	}
	e := d.sam.ensure(addr)
	for g := 0; g < d.cfg.grains(); g++ {
		red := d.grainInRegion(addr, g)
		bit := uint64(1) << uint(g)
		rd := mdRead&bit != 0
		wr := mdWrite&bit != 0
		if !rd && !wr {
			continue
		}
		if rd && !wr {
			// §IV condition (i): read-only grain with a valid foreign last
			// writer means read-write true sharing.
			if e.lastWriter[g] != noCore && e.lastWriter[g] != int16(core) {
				d.markTS(addr, e)
			}
		}
		if wr && !red {
			// §IV condition (ii): a written grain with a foreign last writer
			// or any foreign reader means true sharing.
			if (e.lastWriter[g] != noCore && e.lastWriter[g] != int16(core)) ||
				e.hasOtherReader(d.cfg, g, core) {
				d.markTS(addr, e)
			}
		}
		if rd {
			e.addReader(d.cfg, g, core)
		}
		switch {
		case wr && red:
			// Writes within a declared reduction region are commutative
			// accumulations: record the reduction writer, no true sharing.
			e.redWriters[g].Add(core)
		case wr:
			e.lastWriter[g] = int16(core)
		}
	}
}

// markTS sets the TS bit and bumps the hysteresis counter on a 0->1
// transition (§VI: "HC is incremented whenever a true sharing conflict is
// detected with TS = 0") — whether the conflict was inferred from REP_MD
// metadata or observed by the directory controller directly.
func (d *DirSide) markTS(addr memsys.Addr, e *samEntry) {
	if e.ts {
		return
	}
	e.ts = true
	d.stats.Inc(stats.CtrFSTrueSharing)
	m := d.metaFor(addr)
	if m.hc < d.cfg.HCMax {
		m.hc++
	}
}

// OnMDPhantom decrements PMMC without touching the SAM entry (§V-D).
func (d *DirSide) OnMDPhantom(addr memsys.Addr) {
	m := d.metaFor(addr)
	if m.pmmc > 0 {
		m.pmmc--
	}
}

// PendingMetadata returns PMMC.
func (d *DirSide) PendingMetadata(addr memsys.Addr) int {
	return d.metaFor(addr).pmmc
}

// TrueSharing reports the TS bit.
func (d *DirSide) TrueSharing(addr memsys.Addr) bool {
	e := d.sam.peek(addr)
	return e != nil && e.ts
}

// WantMetadata: interventions/invalidations carry REQ_MD while TS is unset.
func (d *DirSide) WantMetadata(addr memsys.Addr) bool {
	return !d.TrueSharing(addr)
}

// MarkTrueSharing records a controller-detected conflict: TS set and HC
// bumped (§VI).
func (d *DirSide) MarkTrueSharing(addr memsys.Addr) {
	d.markTS(addr, d.sam.ensure(addr))
}

// CheckBytes applies the §V-B conflict-freedom conditions for a PRV access.
func (d *DirSide) CheckBytes(addr memsys.Addr, core int, off, size int, write bool) coherence.ConflictKind {
	lo, hi := d.cfg.grainRange(off, size)
	if hi < lo {
		return coherence.NoConflict // prefetch: touches nothing
	}
	e := d.sam.peek(addr)
	if e == nil {
		return coherence.NoConflict // no recorded history
	}
	if d.isReduction(addr) {
		return d.checkMixed(addr, e, core, lo, hi, write)
	}
	for g := lo; g <= hi; g++ {
		lw := e.lastWriter[g]
		if write {
			// Conflict-free iff (i) no valid last writer and at most this
			// core as reader, or (ii) the last writer is this core.
			if lw == int16(core) {
				continue
			}
			if lw == noCore && !e.hasOtherReader(d.cfg, g, core) {
				continue
			}
			if lw != noCore && lw != int16(core) {
				return coherence.WriteWriteConflict
			}
			return coherence.ReadWriteConflict
		}
		// Read: conflict-free iff no valid last writer or the last writer is
		// this core.
		if lw != noCore && lw != int16(core) {
			return coherence.ReadWriteConflict
		}
	}
	return coherence.NoConflict
}

// checkMixed applies per-grain rules for a block overlapping a reduction
// region (§VII): within the region, concurrent reduction writers do not
// conflict, a read of a grain with foreign reduction writers forces a merge,
// and a reduction write over a foreign reader conflicts; outside the region
// the normal §V-B byte rules apply.
func (d *DirSide) checkMixed(addr memsys.Addr, e *samEntry, core, lo, hi int, write bool) coherence.ConflictKind {
	for g := lo; g <= hi; g++ {
		lw := e.lastWriter[g]
		if d.grainInRegion(addr, g) {
			foreignRed := e.redWriters[g].HasOther(core)
			if write {
				if lw != noCore && lw != int16(core) {
					return coherence.WriteWriteConflict // a non-reduction writer
				}
				if e.hasOtherReader(d.cfg, g, core) {
					return coherence.ReadWriteConflict
				}
				continue
			}
			if foreignRed || (lw != noCore && lw != int16(core)) {
				return coherence.ReadWriteConflict
			}
			continue
		}
		if write {
			if lw == int16(core) {
				continue
			}
			if lw == noCore && !e.hasOtherReader(d.cfg, g, core) {
				continue
			}
			if lw != noCore {
				return coherence.WriteWriteConflict
			}
			return coherence.ReadWriteConflict
		}
		if lw != noCore && lw != int16(core) {
			return coherence.ReadWriteConflict
		}
	}
	return coherence.NoConflict
}

// RecordBytes records the access in the SAM entry after a successful check.
func (d *DirSide) RecordBytes(addr memsys.Addr, core int, off, size int, write bool) {
	lo, hi := d.cfg.grainRange(off, size)
	if hi < lo {
		return
	}
	e := d.sam.ensure(addr)
	for g := lo; g <= hi; g++ {
		switch {
		case write && d.grainInRegion(addr, g):
			e.redWriters[g].Add(core)
		case write:
			e.lastWriter[g] = int16(core)
		default:
			e.addReader(d.cfg, g, core)
		}
	}
}

// OnPrivatize commits privatization: reset the SAM entry, zero and disable
// the counters (§V-A).
func (d *DirSide) OnPrivatize(addr memsys.Addr) {
	m := d.metaFor(addr)
	m.flagged = false
	m.prv = true
	m.fc, m.ic = 0, 0
	e := d.sam.ensure(addr)
	e.clear(d.cfg)
	// A privatized block's SAM entry holds the merge history; protect it
	// from replacement for the duration of the episode.
	d.sam.pin(addr.BlockAlign(d.cfg.BlockSize))
}

// OnTerminate ends a privatized episode: the SAM entry is invalidated and
// the counters cleared so detection restarts cleanly (§V-C).
func (d *DirSide) OnTerminate(addr memsys.Addr) {
	m := d.metaFor(addr)
	m.prv = false
	m.fc, m.ic = 0, 0
	d.sam.invalidate(addr.BlockAlign(d.cfg.BlockSize))
}

// MergeMask expands the per-grain last-writer information into a packed
// per-byte take-from-this-core mask: bit b covers byte b (§V-C, §V-D).
func (d *DirSide) MergeMask(addr memsys.Addr, core int) uint64 {
	e := d.sam.peek(addr)
	if e == nil {
		return 0
	}
	var mask uint64
	grainBytes := uint64(1)<<uint(d.cfg.Granularity) - 1
	for g := 0; g < d.cfg.grains(); g++ {
		if e.lastWriter[g] == int16(core) {
			mask |= grainBytes << uint(g*d.cfg.Granularity)
		}
	}
	return mask
}

// OnPrvEviction clears the evicting core's last-writer slots (§V-D).
func (d *DirSide) OnPrvEviction(addr memsys.Addr, core int) {
	e := d.sam.peek(addr)
	if e == nil {
		return
	}
	for g := range e.lastWriter {
		if e.lastWriter[g] == int16(core) {
			e.lastWriter[g] = noCore
		}
		e.redWriters[g].Remove(core)
	}
}

// OnDirEviction drops all metadata when the directory entry / LLC block is
// evicted.
func (d *DirSide) OnDirEviction(addr memsys.Addr) {
	blk := addr.BlockAlign(d.cfg.BlockSize)
	delete(d.meta, blk)
	d.sam.invalidate(blk)
}

// TakeForcedTerminations drains the privatized blocks whose SAM entry was
// displaced (§V-C: losing the access history would be incorrect).
func (d *DirSide) TakeForcedTerminations() []memsys.Addr {
	return d.sam.takeEvictedPrv()
}

// PendingForcedTerminations reports how many forced terminations are queued
// for the next TakeForcedTerminations call (the coherence.ForcedTerminationPeeker
// extension: the quiescence-skipping engine must not skip past them).
func (d *DirSide) PendingForcedTerminations() int {
	return d.sam.pendingEvictedPrv()
}

// RegisterReduction declares a reduction region (§VII): writes within it are
// commutative accumulations, so write-write overlap is not true sharing and
// privatized copies merge by summing per-core deltas.
func (d *DirSide) RegisterReduction(r coherence.AddrRange) {
	d.reductions = append(d.reductions, r)
}

// isReduction reports whether the block overlaps a declared region.
func (d *DirSide) isReduction(addr memsys.Addr) bool {
	for _, r := range d.reductions {
		if r.Contains(addr, d.cfg.BlockSize) {
			return true
		}
	}
	return false
}

// grainInRegion reports whether grain g of the block lies wholly inside a
// declared reduction region (reduction semantics apply per grain; the rest
// of the block keeps the normal byte-level rules).
func (d *DirSide) grainInRegion(addr memsys.Addr, g int) bool {
	blk := addr.BlockAlign(d.cfg.BlockSize)
	lo := blk + memsys.Addr(g*d.cfg.Granularity)
	hi := lo + memsys.Addr(d.cfg.Granularity)
	for _, r := range d.reductions {
		if lo >= r.Start && hi <= r.Start+memsys.Addr(r.Size) {
			return true
		}
	}
	return false
}

// ReduceMask expands the per-grain reduction-writer bit of core into a packed
// per-byte mask (the delta-merge positions, §VII), bit b covering byte b.
func (d *DirSide) ReduceMask(addr memsys.Addr, core int) uint64 {
	e := d.sam.peek(addr)
	if e == nil {
		return 0
	}
	var mask uint64
	grainBytes := uint64(1)<<uint(d.cfg.Granularity) - 1
	for g := 0; g < d.cfg.grains(); g++ {
		if e.redWriters[g].Has(core) {
			mask |= grainBytes << uint(g*d.cfg.Granularity)
		}
	}
	return mask
}

// HasSAMEntry reports whether a (valid, possibly pinned) SAM entry exists for
// the block containing addr (window-boundary agreement checks).
func (d *DirSide) HasSAMEntry(addr memsys.Addr) bool {
	return d.sam.peek(addr) != nil
}

// SAMValid returns the number of valid SAM entries (testing aid).
func (d *DirSide) SAMValid() int { return d.sam.Valid() }
