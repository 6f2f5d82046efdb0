package core

import (
	"fscoherence/internal/memsys"
	"fscoherence/internal/stats"
)

const noCore = -1

// samEntry mirrors fig. 5b: per tracking grain, the valid last writer and the
// set of readers, plus a block-level TS (true sharing) bit. With ReaderOpt
// (§VI) the reader set degrades to a last-reader ID plus an overflow bit.
type samEntry struct {
	ts         bool
	lastWriter []int16 // noCore when invalid

	// Full reader tracking (bit per core).
	readers []memsys.CoreSet

	// ReaderOpt tracking.
	lastReader []int16
	overflow   []bool

	// redWriters tracks reduction writers per grain (bit per core) for
	// declared reduction regions (§VII): multiple reduction writers of the
	// same grain are not a conflict, and their copies merge by summing.
	redWriters []memsys.CoreSet
}

func newSamEntry(cfg Config) *samEntry {
	g := cfg.grains()
	e := &samEntry{lastWriter: make([]int16, g), redWriters: make([]memsys.CoreSet, g)}
	for i := range e.lastWriter {
		e.lastWriter[i] = noCore
	}
	if cfg.ReaderOpt {
		e.lastReader = make([]int16, g)
		for i := range e.lastReader {
			e.lastReader[i] = noCore
		}
		e.overflow = make([]bool, g)
	} else {
		e.readers = make([]memsys.CoreSet, g)
	}
	return e
}

// addReader records core as a reader of grain g.
func (e *samEntry) addReader(cfg Config, g, core int) {
	if cfg.ReaderOpt {
		if e.lastReader[g] != noCore && e.lastReader[g] != int16(core) {
			e.overflow[g] = true
		}
		e.lastReader[g] = int16(core)
		return
	}
	e.readers[g].Add(core)
}

// hasOtherReader reports whether any core other than core has read grain g.
func (e *samEntry) hasOtherReader(cfg Config, g, core int) bool {
	if cfg.ReaderOpt {
		if e.overflow[g] {
			return true
		}
		return e.lastReader[g] != noCore && e.lastReader[g] != int16(core)
	}
	return e.readers[g].HasOther(core)
}

// hasAnyReader reports whether any core has read grain g.
func (e *samEntry) hasAnyReader(cfg Config, g int) bool {
	if cfg.ReaderOpt {
		return e.lastReader[g] != noCore || e.overflow[g]
	}
	return !e.readers[g].Empty()
}

// clear resets all access information including the TS bit.
func (e *samEntry) clear(cfg Config) {
	e.ts = false
	for i := range e.lastWriter {
		e.lastWriter[i] = noCore
	}
	for i := range e.redWriters {
		e.redWriters[i] = memsys.CoreSet{}
	}
	if cfg.ReaderOpt {
		for i := range e.lastReader {
			e.lastReader[i] = noCore
			e.overflow[i] = false
		}
	} else {
		for i := range e.readers {
			e.readers[i] = memsys.CoreSet{}
		}
	}
}

// SAM is one LLC slice's shared access metadata table (§IV), organized as a
// small set-associative cache with LRU replacement (128 entries per slice by
// default).
type SAM struct {
	cfg   Config
	table *memsys.SetAssoc[*samEntry]
	stats *stats.Set

	// evictedPrv collects blocks whose SAM entry was displaced while
	// privatized; the directory must terminate those episodes (§V-C).
	evictedPrv []memsys.Addr

	// victims retains the displaced entries of privatized blocks until
	// their forced termination completes: the byte-merge needs the
	// last-writer history, so it cannot be dropped with the table entry.
	victims map[memsys.Addr]*samEntry

	// isPrv reports whether a block is currently privatized (owned by the
	// DirSide policy).
	isPrv func(memsys.Addr) bool
}

// NewSAM builds a SAM table.
func NewSAM(cfg Config, slice int, st *stats.Set) *SAM {
	cfg.validate()
	return &SAM{
		cfg:     cfg,
		table:   memsys.NewSetAssoc[*samEntry]("sam", cfg.SAMEntries, cfg.SAMWays, cfg.BlockSize),
		stats:   st,
		victims: make(map[memsys.Addr]*samEntry),
	}
}

// lookup returns the entry for addr, or nil.
func (s *SAM) lookup(addr memsys.Addr) *samEntry {
	e := s.table.Lookup(addr)
	s.stats.IncID(stats.IDSAMLookups)
	if e == nil {
		return nil
	}
	return e.Payload
}

// peek is lookup without LRU refresh or stats. Displaced-but-terminating
// entries in the victim buffer are still visible.
func (s *SAM) peek(addr memsys.Addr) *samEntry {
	e := s.table.Peek(addr)
	if e != nil {
		return e.Payload
	}
	return s.victims[addr.BlockAlign(s.cfg.BlockSize)]
}

// pin marks addr's entry as ineligible for replacement (privatized blocks).
func (s *SAM) pin(addr memsys.Addr) { s.table.Pin(addr) }

// unpin releases the replacement pin.
func (s *SAM) unpin(addr memsys.Addr) { s.table.Unpin(addr) }

// ensure returns the entry for addr, allocating (and possibly evicting an
// LRU victim) if absent. Privatized entries are pinned and therefore only
// displaced when every way of the set is privatized; a displaced privatized
// entry moves to the victim buffer (its merge history is still needed) and
// its block is queued for forced termination (§V-C).
func (s *SAM) ensure(addr memsys.Addr) *samEntry {
	if e := s.lookup(addr); e != nil {
		return e
	}
	// A displaced privatized entry awaiting forced termination still owns the
	// episode's merge history: record into it rather than allocating a fresh
	// table entry that would shadow it (and lose the last-writer bytes when
	// the termination finally merges).
	if v := s.victims[addr.BlockAlign(s.cfg.BlockSize)]; v != nil {
		return v
	}
	if s.table.Victim(addr) == nil {
		// Every way of the set is pinned (all privatized): forcibly
		// displace one of them into the victim buffer.
		tag, found := s.anyInSet(addr)
		if !found {
			panic("core: SAM set has no victim and no valid entries")
		}
		s.displacePrv(tag, s.table.Peek(tag).Payload)
		s.table.Unpin(tag)
		s.table.Invalidate(tag)
	}
	ent, evicted, ok := s.table.Insert(addr)
	if ok {
		s.stats.IncID(stats.IDSAMReplacements)
		if s.isPrv != nil && s.isPrv(evicted.Tag) {
			// Defensive: privatized entries are pinned and should not be
			// chosen by Insert, but never lose merge history if one is.
			s.displacePrv(evicted.Tag, evicted.Payload)
		} else if e := evicted.Payload; e != nil {
			// The table is fixed storage (fig. 5b): the displaced entry's
			// history is dropped, so its payload serves the new block.
			// Callers fetch their entry per call and hold none across an
			// ensure of another block.
			e.clear(s.cfg)
			ent.Payload = e
			return e
		}
	}
	ent.Payload = newSamEntry(s.cfg)
	return ent.Payload
}

// anyInSet returns a valid tag mapping to addr's set.
func (s *SAM) anyInSet(addr memsys.Addr) (memsys.Addr, bool) {
	var tag memsys.Addr
	found := false
	s.table.ForEach(func(e *memsys.Entry[*samEntry]) {
		if !found && s.table.SetIndex(e.Tag) == s.table.SetIndex(addr) {
			tag = e.Tag
			found = true
		}
	})
	return tag, found
}

// displacePrv stashes a privatized block's entry for the pending forced
// termination's byte merge.
func (s *SAM) displacePrv(tag memsys.Addr, payload *samEntry) {
	s.stats.IncID(stats.IDSAMReplacements)
	s.victims[tag] = payload
	s.evictedPrv = append(s.evictedPrv, tag)
}

// invalidate drops the entry for addr, including any victim-buffer copy.
func (s *SAM) invalidate(addr memsys.Addr) {
	blk := addr.BlockAlign(s.cfg.BlockSize)
	s.table.Unpin(blk)
	s.table.Invalidate(blk)
	delete(s.victims, blk)
}

// pendingEvictedPrv reports the number of displaced privatized blocks
// awaiting forced termination, without draining them.
func (s *SAM) pendingEvictedPrv() int { return len(s.evictedPrv) }

// takeEvictedPrv drains the privatized blocks displaced from the table.
func (s *SAM) takeEvictedPrv() []memsys.Addr {
	out := s.evictedPrv
	s.evictedPrv = nil
	return out
}

// Valid returns the number of valid SAM entries (testing aid).
func (s *SAM) Valid() int { return s.table.CountValid() }
