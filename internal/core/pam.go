package core

import (
	"fmt"
	"math/bits"

	"fscoherence/internal/coherence"
	"fscoherence/internal/memsys"
	"fscoherence/internal/stats"
)

var _ coherence.L1Policy = (*PAM)(nil)

// pamEntry mirrors fig. 5a: one read and one write bit per tracking grain of
// an L1 cache block, plus the SEND_MD bit that gates metadata communication
// on eviction.
type pamEntry struct {
	read   uint64
	write  uint64
	sendMD bool
}

// PAM is a per-core private access metadata table (§IV). The simulator keys
// entries by block address; an entry exists exactly while the block is
// resident in the core's L1D, matching the paper's one-entry-per-L1-line
// organization (512 entries for a 32 KB L1D).
type PAM struct {
	cfg      Config
	core     int
	blkShift uint // log2(BlockSize), precomputed for the mru slot hash
	entries  map[memsys.Addr]*pamEntry
	stats    *stats.Set

	// mru is an 8-slot direct-mapped shortcut past the map lookup (slot chosen
	// by low line-address bits) — the commit path touches a handful of blocks
	// in a tight rotation (a falsely shared line plus a few streaming lines),
	// so a small direct-mapped cache captures almost all Commit lookups.
	// Slots are invalidated when their block's entry is dropped.
	mruBlks [8]memsys.Addr
	mruEnts [8]*pamEntry

	// free holds the entries of dropped lines for Allocate to reuse: the
	// paper's PAM is fixed storage, one entry per L1 line, so a fill need
	// not allocate.
	free []*pamEntry
}

// NewPAM builds the PAM table for one core.
func NewPAM(cfg Config, core int, st *stats.Set) *PAM {
	cfg.validate()
	return &PAM{
		cfg:      cfg,
		core:     core,
		blkShift: uint(bits.TrailingZeros(uint(cfg.BlockSize))),
		entries:  make(map[memsys.Addr]*pamEntry),
		stats:    st,
	}
}

// mask returns the grain bit-mask covering [off, off+size), computed in
// closed form: a width-(hi-lo+1) run of ones shifted to lo. Byte granularity
// (the default, and the hot path) needs no grain conversion at all: access
// sizes are capped at 8 bytes, so the run never saturates.
func (p *PAM) mask(off, size int) uint64 {
	if p.cfg.Granularity == 1 {
		if size <= 0 {
			return 0
		}
		return ((uint64(1) << uint(size)) - 1) << uint(off)
	}
	lo, hi := p.cfg.grainRange(off, size)
	if hi < lo {
		return 0
	}
	n := uint(hi - lo + 1)
	if n >= 64 {
		return ^uint64(0)
	}
	return ((uint64(1) << n) - 1) << uint(lo)
}

// mruSlot maps a block address to its direct-mapped mru slot.
func (p *PAM) mruSlot(blk memsys.Addr) int {
	return int((uint64(blk) >> p.blkShift) & 7)
}

func (p *PAM) entry(addr memsys.Addr) *pamEntry {
	blk := addr.BlockAlign(p.cfg.BlockSize)
	s := p.mruSlot(blk)
	if e := p.mruEnts[s]; e != nil && p.mruBlks[s] == blk {
		return e
	}
	e := p.entries[blk]
	if e != nil {
		p.mruBlks[s], p.mruEnts[s] = blk, e
	}
	return e
}

// Allocate creates a fresh (cleared) entry for a newly filled line, reusing
// a dropped line's entry when there is one.
func (p *PAM) Allocate(addr memsys.Addr, sendMD bool) {
	blk := addr.BlockAlign(p.cfg.BlockSize)
	var e *pamEntry
	if n := len(p.free); n > 0 {
		e = p.free[n-1]
		p.free = p.free[:n-1]
		*e = pamEntry{sendMD: sendMD}
	} else {
		e = &pamEntry{sendMD: sendMD}
	}
	p.entries[blk] = e
	s := p.mruSlot(blk)
	p.mruBlks[s], p.mruEnts[s] = blk, e
}

// Commit records a committed access to [off,off+size): read bits if rd,
// write bits if wr, one pam.updates count for each. With check set it first
// applies the §V-B local-hit test, write bits for a write (wr) and read-or-
// write bits for a read, and returns false, changing nothing, if the entry
// does not already cover the range.
func (p *PAM) Commit(addr memsys.Addr, off, size int, check, rd, wr bool) bool {
	e := p.entry(addr)
	if e == nil {
		panic(fmt.Sprintf("core: PAM access without entry at %v (core %d)", addr, p.core))
	}
	m := p.mask(off, size)
	if check {
		have := e.write
		if !wr {
			have |= e.read
		}
		if have&m != m {
			return false
		}
	}
	var n uint64
	if rd {
		e.read |= m
		n++
	}
	if wr {
		e.write |= m
		n++
	}
	p.stats.AddID(stats.IDPAMUpdates, n)
	return true
}

// SetSendMD updates the SEND_MD bit.
func (p *PAM) SetSendMD(addr memsys.Addr, v bool) {
	if e := p.entry(addr); e != nil {
		e.sendMD = v
	}
}

// PeekSendMD reports the SEND_MD bit.
func (p *PAM) PeekSendMD(addr memsys.Addr) bool {
	e := p.entry(addr)
	return e != nil && e.sendMD
}

// PeekEntry returns the bit-vectors without clearing.
func (p *PAM) PeekEntry(addr memsys.Addr) (uint64, uint64, bool) {
	e := p.entry(addr)
	if e == nil {
		return 0, 0, false
	}
	return e.read, e.write, true
}

// TakeEntry returns and clears the entry (invalidation/eviction path).
func (p *PAM) TakeEntry(addr memsys.Addr) (uint64, uint64, bool, bool) {
	e := p.remove(addr)
	if e == nil {
		return 0, 0, false, false
	}
	return e.read, e.write, e.sendMD, true
}

// Drop invalidates the entry without reading it.
func (p *PAM) Drop(addr memsys.Addr) { p.remove(addr) }

// remove unmaps addr's entry, clears its mru slot and puts the entry on the
// freelist. It returns the entry, whose fields stay readable until the next
// Allocate, or nil if the block had none.
func (p *PAM) remove(addr memsys.Addr) *pamEntry {
	blk := addr.BlockAlign(p.cfg.BlockSize)
	e := p.entries[blk]
	if e == nil {
		return nil
	}
	delete(p.entries, blk)
	if s := p.mruSlot(blk); p.mruBlks[s] == blk {
		p.mruEnts[s] = nil
	}
	p.free = append(p.free, e)
	return e
}

// Has reports whether an entry exists for the block containing addr (the
// window-boundary agreement checks: an entry exists exactly while the block
// is resident in the core's L1D).
func (p *PAM) Has(addr memsys.Addr) bool { return p.entry(addr) != nil }

// Entries returns the number of live entries (testing aid).
func (p *PAM) Entries() int { return len(p.entries) }
