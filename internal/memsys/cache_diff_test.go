package memsys

import (
	"fmt"
	"math/bits"
	"math/rand"
	"reflect"
	"testing"
)

// flatEntry is one way of flatAssoc: the Entry layout from before sets were
// built lazily, with the pin recorded both here and in the set's bitset.
type flatEntry[V any] struct {
	Valid   bool
	Tag     Addr
	Payload V
	lastUse uint64
	pinned  bool
}

// flatAssoc is the reference SetAssoc for the differential test: every way
// allocated up front in one row-major array, the MRU shortcut holding entry
// indexes. It returns entry indexes where SetAssoc returns pointers, so the
// test can compare positions as well as contents.
type flatAssoc[V any] struct {
	sets, ways, blockSize int
	setShift              int
	setMask               Addr
	waysMask              uint64
	entries               []flatEntry[V]
	occ, pins             []uint64
	clock                 uint64
	mruTags               [8]Addr
	mruIdxs               [8]int32
}

func newFlatAssoc[V any](entries, ways, blockSize int) *flatAssoc[V] {
	sets := entries / ways
	waysMask := ^uint64(0)
	if ways < 64 {
		waysMask = uint64(1)<<uint(ways) - 1
	}
	return &flatAssoc[V]{
		sets: sets, ways: ways, blockSize: blockSize,
		setShift: Log2(blockSize), setMask: Addr(sets - 1), waysMask: waysMask,
		entries: make([]flatEntry[V], entries),
		occ:     make([]uint64, sets),
		pins:    make([]uint64, sets),
		mruIdxs: [8]int32{-1, -1, -1, -1, -1, -1, -1, -1},
	}
}

func (c *flatAssoc[V]) setIndex(a Addr) int { return int((a >> Addr(c.setShift)) & c.setMask) }

func (c *flatAssoc[V]) clearMRU() { c.mruIdxs = [8]int32{-1, -1, -1, -1, -1, -1, -1, -1} }

// peek returns the index of the entry holding a, or -1.
func (c *flatAssoc[V]) peek(a Addr) int {
	a = a.BlockAlign(c.blockSize)
	si := c.setIndex(a)
	for m := c.occ[si]; m != 0; m &= m - 1 {
		w := bits.TrailingZeros64(m)
		if c.entries[si*c.ways+w].Tag == a {
			return si*c.ways + w
		}
	}
	return -1
}

func (c *flatAssoc[V]) lookup(a Addr) int {
	a = a.BlockAlign(c.blockSize)
	s := int((a >> Addr(c.setShift)) & 7)
	if i := c.mruIdxs[s]; i >= 0 && c.mruTags[s] == a {
		c.clock++
		c.entries[i].lastUse = c.clock
		return int(i)
	}
	i := c.peek(a)
	if i < 0 {
		return -1
	}
	c.clock++
	c.entries[i].lastUse = c.clock
	c.mruIdxs[s], c.mruTags[s] = int32(i), a
	return i
}

func (c *flatAssoc[V]) victim(a Addr) int {
	si := c.setIndex(a.BlockAlign(c.blockSize))
	if inv := ^c.occ[si] & c.waysMask; inv != 0 {
		return si*c.ways + bits.TrailingZeros64(inv)
	}
	victim := -1
	for m := c.occ[si] &^ c.pins[si]; m != 0; m &= m - 1 {
		w := bits.TrailingZeros64(m)
		if victim < 0 || c.entries[si*c.ways+w].lastUse < c.entries[si*c.ways+victim].lastUse {
			victim = w
		}
	}
	if victim < 0 {
		return -1
	}
	return si*c.ways + victim
}

// insert mirrors SetAssoc.Insert for an absent address with an unpinned way.
func (c *flatAssoc[V]) insert(a Addr) (int, flatEntry[V], bool) {
	a = a.BlockAlign(c.blockSize)
	i := c.victim(a)
	ev := c.entries[i]
	c.clock++
	c.entries[i] = flatEntry[V]{Valid: true, Tag: a, lastUse: c.clock}
	si, w := i/c.ways, i%c.ways
	c.occ[si] |= 1 << uint(w)
	c.pins[si] &^= 1 << uint(w)
	c.clearMRU()
	return i, ev, ev.Valid
}

func (c *flatAssoc[V]) invalidate(a Addr) (flatEntry[V], bool) {
	i := c.peek(a)
	if i < 0 {
		return flatEntry[V]{}, false
	}
	ev := c.entries[i]
	c.entries[i] = flatEntry[V]{}
	si, w := i/c.ways, i%c.ways
	c.occ[si] &^= 1 << uint(w)
	c.pins[si] &^= 1 << uint(w)
	c.clearMRU()
	return ev, true
}

func (c *flatAssoc[V]) setPin(a Addr, on bool) bool {
	i := c.peek(a)
	if i < 0 {
		return false
	}
	c.entries[i].pinned = on
	si, w := i/c.ways, i%c.ways
	if on {
		c.pins[si] |= 1 << uint(w)
	} else {
		c.pins[si] &^= 1 << uint(w)
	}
	return true
}

// slotEntry is one valid entry of a replacement-state image, at its
// absolute slot (set*ways+way).
type slotEntry[V any] struct {
	Index int
	flatEntry[V]
}

// image returns the reference's exact replacement state: the LRU clock and
// every valid entry with its timestamp and pin bit, in ascending slot order.
func (c *flatAssoc[V]) image() (uint64, []slotEntry[V]) {
	var out []slotEntry[V]
	for i, e := range c.entries {
		if e.Valid {
			out = append(out, slotEntry[V]{i, e})
		}
	}
	return c.clock, out
}

// imageOf returns the same image of a SetAssoc, read from its rows and
// bitsets.
func imageOf[V any](c *SetAssoc[V]) (uint64, []slotEntry[V]) {
	var out []slotEntry[V]
	for si, m := range c.occ {
		for ; m != 0; m &= m - 1 {
			w := bits.TrailingZeros64(m)
			e := c.rows[si][w]
			out = append(out, slotEntry[V]{si*c.ways + w, flatEntry[V]{
				Valid: e.Valid, Tag: e.Tag, Payload: e.Payload, lastUse: e.lastUse,
				pinned: c.pins[si]&(1<<uint(w)) != 0,
			}})
		}
	}
	return c.clock, out
}

func (c *flatAssoc[V]) forEach(fn func(*flatEntry[V])) {
	for si := 0; si < c.sets; si++ {
		for m := c.occ[si]; m != 0; m &= m - 1 {
			fn(&c.entries[si*c.ways+bits.TrailingZeros64(m)])
		}
	}
}

// indexOf returns the absolute slot (set*ways+way) of p in c, or -1 for nil.
func indexOf[V any](c *SetAssoc[V], p *Entry[V]) int {
	if p == nil {
		return -1
	}
	for si, row := range c.rows {
		for w := range row {
			if &row[w] == p {
				return si*c.ways + w
			}
		}
	}
	panic("entry pointer outside the cache")
}

// sameEntry reports whether a SetAssoc entry and a reference entry hold the
// same line (the pin lives in the bitset, so it is not compared here).
func sameEntry[V comparable](e Entry[V], f flatEntry[V]) bool {
	return e.Valid == f.Valid && e.Tag == f.Tag && e.Payload == f.Payload && e.lastUse == f.lastUse
}

// TestCacheMatchesFlatReference drives the lazily built SetAssoc and the
// flat-array reference through one seeded sequence of operations and
// demands identical results: returned entries (contents and slot), evictions,
// pin results, replacement-state images, ForEach order and CountValid. The address
// range spans every set, so Victim and Insert regularly land in sets that
// have never been touched.
func TestCacheMatchesFlatReference(t *testing.T) {
	geoms := []struct{ entries, ways int }{
		{8, 2},    // 4 sets
		{256, 4},  // 64 sets, mostly untouched at any time
		{512, 16}, // the LLC slice's associativity
		{128, 64}, // full-width occupancy mask
	}
	fresh := 0
	for _, g := range geoms {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("%dx%d/seed%d", g.entries, g.ways, seed), func(t *testing.T) {
				fresh += diffRun(t, g.entries, g.ways, seed)
			})
		}
	}
	if fresh == 0 {
		t.Fatal("no Victim call reached an untouched set")
	}
}

// diffRun runs one seeded sequence and returns how many Victim calls landed
// in a set that had not been built yet.
func diffRun(t *testing.T, entries, ways int, seed int64) (fresh int) {
	const bs = 64
	rng := rand.New(rand.NewSource(seed))
	c := NewSetAssoc[uint64]("diff", entries, ways, bs)
	ref := newFlatAssoc[uint64](entries, ways, bs)
	// Twice the cache's capacity in distinct blocks, so sets overflow and
	// evict, with an offset inside the block to exercise alignment.
	addr := func() Addr { return Addr(rng.Intn(2*entries))*bs + Addr(rng.Intn(bs)) }
	for step := 0; step < 4000; step++ {
		a := addr()
		fail := func(op string, got, want any) {
			t.Fatalf("step %d %s(%v): got %+v, want %+v", step, op, a, got, want)
		}
		switch op := rng.Intn(10); op {
		case 0, 1: // Lookup, sometimes writing the payload through the entry
			e, i := c.Lookup(a), ref.lookup(a)
			if indexOf(c, e) != i || (e != nil && !sameEntry(*e, ref.entries[i])) {
				fail("Lookup", indexOf(c, e), i)
			}
			if e != nil && rng.Intn(2) == 0 {
				v := rng.Uint64()
				e.Payload, ref.entries[i].Payload = v, v
			}
		case 2: // Peek
			e, i := c.Peek(a), ref.peek(a)
			if indexOf(c, e) != i || (e != nil && !sameEntry(*e, ref.entries[i])) {
				fail("Peek", indexOf(c, e), i)
			}
		case 3: // Victim, then Insert when the block is absent and a way is free
			if c.rows[c.SetIndex(a.BlockAlign(bs))] == nil {
				fresh++
			}
			e, i := c.Victim(a), ref.victim(a)
			if indexOf(c, e) != i || (e != nil && !sameEntry(*e, ref.entries[i])) {
				fail("Victim", indexOf(c, e), i)
			}
			if e == nil || c.Peek(a) != nil {
				break
			}
			fallthrough
		case 4: // Insert
			if c.Peek(a) != nil || c.Victim(a) == nil {
				break
			}
			e, ev, ok := c.Insert(a)
			i, rev, rok := ref.insert(a)
			if indexOf(c, e) != i || ok != rok || (ok && !sameEntry(ev, rev)) {
				fail("Insert", fmt.Sprint(indexOf(c, e), ev, ok), fmt.Sprint(i, rev, rok))
			}
			v := rng.Uint64()
			e.Payload, ref.entries[i].Payload = v, v
		case 5: // Invalidate
			ev, ok := c.Invalidate(a)
			rev, rok := ref.invalidate(a)
			if ok != rok || !sameEntry(ev, rev) {
				fail("Invalidate", ev, rev)
			}
		case 6: // Pin
			if got, want := c.Pin(a), ref.setPin(a, true); got != want {
				fail("Pin", got, want)
			}
		case 7: // Unpin
			if got, want := c.Unpin(a), ref.setPin(a, false); got != want {
				fail("Unpin", got, want)
			}
		case 8, 9: // the whole replacement state
			gotClock, got := imageOf(c)
			wantClock, want := ref.image()
			if gotClock != wantClock || !reflect.DeepEqual(got, want) {
				fail("image", fmt.Sprint(gotClock, got), fmt.Sprint(wantClock, want))
			}
		}
		if _, want := ref.image(); c.CountValid() != len(want) {
			t.Fatalf("step %d CountValid: got %d, want %d", step, c.CountValid(), len(want))
		}
		var got, want []Addr
		c.ForEach(func(e *Entry[uint64]) { got = append(got, e.Tag) })
		ref.forEach(func(e *flatEntry[uint64]) { want = append(want, e.Tag) })
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d ForEach order: got %v, want %v", step, got, want)
		}
	}
	return fresh
}

// TestCacheMissBuildsNoRow checks the point of building sets lazily: a miss
// of any kind leaves an untouched set unbuilt, and only Victim and
// Insert build one.
func TestCacheMissBuildsNoRow(t *testing.T) {
	c := NewSetAssoc[int]("t", 64, 4, 64) // 16 sets
	const a = Addr(0x140)
	si := c.SetIndex(a)
	c.Lookup(a)
	c.Peek(a)
	c.Invalidate(a)
	c.Pin(a)
	c.Unpin(a)
	c.ForEach(func(*Entry[int]) {})
	if c.rows[si] != nil {
		t.Fatal("a miss built the set's row")
	}
	if v := c.Victim(a); v == nil || v.Valid || c.rows[si] == nil {
		t.Fatal("Victim on an untouched set must build it and return a free way")
	}
	for s, r := range c.rows {
		if s != si && r != nil {
			t.Fatalf("set %d built without being touched", s)
		}
	}
}
