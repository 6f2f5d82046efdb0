package memsys

import (
	"fmt"
	"math/bits"
)

// Entry is one way of one set in a SetAssoc cache. Tag holds the full
// block-aligned address (not a truncated tag) for simplicity; Payload is the
// per-line state owned by the client (coherence state, data, metadata, ...).
type Entry[V any] struct {
	Valid   bool
	Tag     Addr // block-aligned address
	Payload V
	lastUse uint64 // LRU timestamp
}

// SetAssoc is a generic set-associative cache with true-LRU replacement.
// Addresses are mapped to sets by block-aligned address bits; the payload
// type V carries whatever per-line state the client needs.
//
// Each set keeps a packed occupancy bitset (bit w set iff way w is valid) and
// a pin bitset, so lookups walk only the valid ways and victim selection finds
// an invalid way with a single TrailingZeros64 — the hot-loop win for mostly
// warm caches where the per-way Valid test used to dominate. This caps the
// associativity at 64 ways.
//
// A set's ways are allocated on first use (Victim or Insert), so
// a cache costs only the sets a run touches: the bitsets answer every miss
// in an untouched set without reaching for its row. Rows never move once
// built, so entry pointers stay valid for the cache's lifetime.
type SetAssoc[V any] struct {
	name      string
	sets      int
	ways      int
	blockSize int
	setShift  int
	setMask   Addr
	waysMask  uint64
	rows      [][]Entry[V] // per set, nil until first use
	occ       []uint64     // per-set valid-way bitsets
	pins      []uint64     // per-set pinned-way bitsets
	clock     uint64

	// mru is an 8-slot direct-mapped cache of recent Lookup hits (entry
	// pointer per tag, slot chosen by low line-address bits). It is purely a
	// shortcut: a hit performs the same LRU refresh as the set scan would, so
	// replacement behavior is bit-identical. Insert and Invalidate clear it
	// (entries never move, but a displaced or removed tag must not linger).
	mruTags [8]Addr
	mruEnts [8]*Entry[V]
}

// NewSetAssoc builds a cache with the given total entry count and
// associativity. entries must be a multiple of ways and entries/ways must be a
// power of two; ways must be at most 64 (the occupancy bitset width).
// blockSize must be a power of two and determines how addresses are
// block-aligned before indexing.
func NewSetAssoc[V any](name string, entries, ways, blockSize int) *SetAssoc[V] {
	if ways <= 0 || entries <= 0 || entries%ways != 0 {
		panic(fmt.Sprintf("memsys: bad cache geometry %s: entries=%d ways=%d", name, entries, ways))
	}
	if ways > 64 {
		panic(fmt.Sprintf("memsys: associativity above 64 unsupported, got %d (%s)", ways, name))
	}
	sets := entries / ways
	if !IsPow2(sets) {
		panic(fmt.Sprintf("memsys: sets must be a power of two, got %d (%s)", sets, name))
	}
	if !IsPow2(blockSize) {
		panic(fmt.Sprintf("memsys: block size must be a power of two, got %d (%s)", blockSize, name))
	}
	var waysMask uint64
	if ways == 64 {
		waysMask = ^uint64(0)
	} else {
		waysMask = uint64(1)<<uint(ways) - 1
	}
	return &SetAssoc[V]{
		name:      name,
		sets:      sets,
		ways:      ways,
		blockSize: blockSize,
		setShift:  Log2(blockSize),
		setMask:   Addr(sets - 1),
		waysMask:  waysMask,
		rows:      make([][]Entry[V], sets),
		occ:       make([]uint64, sets),
		pins:      make([]uint64, sets),
	}
}

// Sets returns the number of sets.
func (c *SetAssoc[V]) Sets() int { return c.sets }

// Ways returns the associativity.
func (c *SetAssoc[V]) Ways() int { return c.ways }

// BlockSize returns the block size in bytes.
func (c *SetAssoc[V]) BlockSize() int { return c.blockSize }

// Entries returns the total number of entries.
func (c *SetAssoc[V]) Entries() int { return c.sets * c.ways }

// SetIndex returns the set index for address a.
func (c *SetAssoc[V]) SetIndex(a Addr) int {
	return int((a >> Addr(c.setShift)) & c.setMask)
}

// row returns set si's ways, building them on first use.
func (c *SetAssoc[V]) row(si int) []Entry[V] {
	r := c.rows[si]
	if r == nil {
		r = make([]Entry[V], c.ways)
		c.rows[si] = r
	}
	return r
}

// peekIdx returns the set index and way index of the entry holding a, or
// way -1 on miss. a must be block-aligned. Only valid ways are read, so a
// miss in an unbuilt set never builds it.
func (c *SetAssoc[V]) peekIdx(a Addr) (int, int) {
	si := c.SetIndex(a)
	set := c.rows[si]
	for m := c.occ[si]; m != 0; m &= m - 1 {
		w := bits.TrailingZeros64(m)
		if set[w].Tag == a {
			return si, w
		}
	}
	return si, -1
}

// Lookup returns the entry holding address a, or nil on miss. On hit the
// entry's LRU timestamp is refreshed.
func (c *SetAssoc[V]) Lookup(a Addr) *Entry[V] {
	a = a.BlockAlign(c.blockSize)
	s := int((a >> Addr(c.setShift)) & 7)
	if e := c.mruEnts[s]; e != nil && c.mruTags[s] == a {
		c.clock++
		e.lastUse = c.clock
		return e
	}
	si, w := c.peekIdx(a)
	if w < 0 {
		return nil
	}
	e := &c.rows[si][w]
	c.clock++
	e.lastUse = c.clock
	c.mruEnts[s], c.mruTags[s] = e, a
	return e
}

// Peek returns the entry holding address a without refreshing LRU state, or
// nil on miss.
func (c *SetAssoc[V]) Peek(a Addr) *Entry[V] {
	a = a.BlockAlign(c.blockSize)
	si, w := c.peekIdx(a)
	if w < 0 {
		return nil
	}
	return &c.rows[si][w]
}

// victimIdx returns the way Insert would use for (block-aligned) a: the
// lowest invalid way if one exists, otherwise the least recently used
// unpinned way. It returns -1 if every way in the set is pinned.
func (c *SetAssoc[V]) victimIdx(a Addr) (int, int) {
	si := c.SetIndex(a)
	if inv := ^c.occ[si] & c.waysMask; inv != 0 {
		return si, bits.TrailingZeros64(inv)
	}
	set := c.rows[si]
	victim := -1
	for m := c.occ[si] &^ c.pins[si]; m != 0; m &= m - 1 {
		w := bits.TrailingZeros64(m)
		if victim < 0 || set[w].lastUse < set[victim].lastUse {
			victim = w
		}
	}
	return si, victim
}

// Victim returns the entry that Insert would use for address a: an invalid
// way if one exists, otherwise the least recently used unpinned way. It
// returns nil if every way in the set is pinned.
func (c *SetAssoc[V]) Victim(a Addr) *Entry[V] {
	a = a.BlockAlign(c.blockSize)
	si, w := c.victimIdx(a)
	if w < 0 {
		return nil
	}
	return &c.row(si)[w]
}

// Insert places address a into the cache and returns the entry plus, if a
// valid line was displaced, the displaced entry's contents (ok reports
// whether there was one). The new entry's payload is the zero value of V;
// the caller fills it in. Insert panics if a is already present (use Lookup
// first) or if all ways are pinned.
func (c *SetAssoc[V]) Insert(a Addr) (e *Entry[V], evicted Entry[V], ok bool) {
	a = a.BlockAlign(c.blockSize)
	if c.Peek(a) != nil {
		panic(fmt.Sprintf("memsys: %s: insert of resident address %s", c.name, a))
	}
	si, w := c.victimIdx(a)
	if w < 0 {
		panic(fmt.Sprintf("memsys: %s: all ways pinned in set of %s", c.name, a))
	}
	e = &c.row(si)[w]
	if e.Valid {
		evicted, ok = *e, true
	}
	c.clock++
	*e = Entry[V]{Valid: true, Tag: a, lastUse: c.clock}
	c.occ[si] |= 1 << uint(w)
	c.pins[si] &^= 1 << uint(w)
	c.mruEnts = [8]*Entry[V]{}
	return e, evicted, ok
}

// Invalidate removes address a from the cache, returning the entry's
// contents and whether it was present.
func (c *SetAssoc[V]) Invalidate(a Addr) (Entry[V], bool) {
	a = a.BlockAlign(c.blockSize)
	si, w := c.peekIdx(a)
	if w < 0 {
		return Entry[V]{}, false
	}
	e := &c.rows[si][w]
	ev := *e
	*e = Entry[V]{}
	c.occ[si] &^= 1 << uint(w)
	c.pins[si] &^= 1 << uint(w)
	c.mruEnts = [8]*Entry[V]{}
	return ev, true
}

// Pin marks the line holding a as ineligible for replacement. It reports
// whether the line was found.
func (c *SetAssoc[V]) Pin(a Addr) bool {
	a = a.BlockAlign(c.blockSize)
	si, w := c.peekIdx(a)
	if w < 0 {
		return false
	}
	c.pins[si] |= 1 << uint(w)
	return true
}

// Unpin clears the replacement pin on the line holding a.
func (c *SetAssoc[V]) Unpin(a Addr) bool {
	a = a.BlockAlign(c.blockSize)
	si, w := c.peekIdx(a)
	if w < 0 {
		return false
	}
	c.pins[si] &^= 1 << uint(w)
	return true
}

// ForEach calls fn for every valid entry. Mutating payloads inside fn is
// allowed; inserting or invalidating is not.
func (c *SetAssoc[V]) ForEach(fn func(*Entry[V])) {
	for si := 0; si < c.sets; si++ {
		set := c.rows[si]
		for m := c.occ[si]; m != 0; m &= m - 1 {
			fn(&set[bits.TrailingZeros64(m)])
		}
	}
}

// CountValid returns the number of valid entries.
func (c *SetAssoc[V]) CountValid() int {
	n := 0
	for _, m := range c.occ {
		n += bits.OnesCount64(m)
	}
	return n
}
