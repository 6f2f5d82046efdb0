package memsys

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBlockAlign(t *testing.T) {
	cases := []struct {
		addr      Addr
		blockSize int
		align     Addr
		offset    int
	}{
		{0x0, 64, 0x0, 0},
		{0x3f, 64, 0x0, 63},
		{0x40, 64, 0x40, 0},
		{0x12345, 64, 0x12340, 5},
		{0x7, 8, 0x0, 7},
		{0x1234, 4096, 0x1000, 0x234},
	}
	for _, c := range cases {
		if got := c.addr.BlockAlign(c.blockSize); got != c.align {
			t.Errorf("BlockAlign(%v,%d) = %v, want %v", c.addr, c.blockSize, got, c.align)
		}
		if got := c.addr.BlockOffset(c.blockSize); got != c.offset {
			t.Errorf("BlockOffset(%v,%d) = %d, want %d", c.addr, c.blockSize, got, c.offset)
		}
	}
}

func TestBlockAlignProperty(t *testing.T) {
	f := func(a uint64) bool {
		addr := Addr(a)
		al := addr.BlockAlign(64)
		off := addr.BlockOffset(64)
		return al+Addr(off) == addr && off >= 0 && off < 64 && al.BlockOffset(64) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLog2(t *testing.T) {
	for i := 0; i < 30; i++ {
		if got := Log2(1 << i); got != i {
			t.Errorf("Log2(%d) = %d, want %d", 1<<i, got, i)
		}
	}
	if !IsPow2(1) || !IsPow2(64) || IsPow2(0) || IsPow2(3) || IsPow2(-4) {
		t.Error("IsPow2 misbehaves")
	}
}

func TestCacheBasicHitMiss(t *testing.T) {
	c := NewSetAssoc[int]("t", 8, 2, 64)
	if c.Sets() != 4 || c.Ways() != 2 || c.Entries() != 8 {
		t.Fatalf("geometry: sets=%d ways=%d", c.Sets(), c.Ways())
	}
	if e := c.Lookup(0x100); e != nil {
		t.Fatal("lookup on empty cache should miss")
	}
	e, _, evicted := c.Insert(0x100)
	if evicted {
		t.Fatal("insert into empty set should not evict")
	}
	e.Payload = 42
	got := c.Lookup(0x13f) // same block as 0x100
	if got == nil || got.Payload != 42 {
		t.Fatalf("lookup after insert: %+v", got)
	}
	if c.Peek(0x200) != nil {
		t.Fatal("peek of absent address should miss")
	}
}

func TestCacheLRUEviction(t *testing.T) {
	// One set (sets=1): ways fill up, then LRU should be displaced.
	c := NewSetAssoc[string]("t", 2, 2, 64)
	a1, a2, a3 := Addr(0x000), Addr(0x040), Addr(0x080)
	e, _, _ := c.Insert(a1)
	e.Payload = "a1"
	e, _, _ = c.Insert(a2)
	e.Payload = "a2"
	// Touch a1 so a2 becomes LRU.
	c.Lookup(a1)
	e, ev, ok := c.Insert(a3)
	e.Payload = "a3"
	if !ok || ev.Tag != a2 || ev.Payload != "a2" {
		t.Fatalf("expected eviction of a2, got %+v", ev)
	}
	if c.Peek(a1) == nil || c.Peek(a3) == nil || c.Peek(a2) != nil {
		t.Fatal("wrong residency after eviction")
	}
}

func TestCachePinBlocksEviction(t *testing.T) {
	c := NewSetAssoc[int]("t", 2, 2, 64)
	c.Insert(0x000)
	c.Insert(0x040)
	if !c.Pin(0x000) {
		t.Fatal("pin failed")
	}
	_, ev, ok := c.Insert(0x080)
	if !ok || ev.Tag != 0x040 {
		t.Fatalf("eviction should pick unpinned way, got %+v", ev)
	}
	if !c.Unpin(0x000) {
		t.Fatal("unpin failed")
	}
	if _, _, ok := c.Insert(0x0c0); !ok {
		t.Fatal("expected an eviction")
	}
}

func TestCacheVictimAllPinned(t *testing.T) {
	c := NewSetAssoc[int]("t", 2, 2, 64)
	c.Insert(0x000)
	c.Insert(0x040)
	c.Pin(0x000)
	c.Pin(0x040)
	if v := c.Victim(0x080); v != nil {
		t.Fatal("victim should be nil when all ways pinned")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Insert with all ways pinned should panic")
		}
	}()
	c.Insert(0x080)
}

func TestCacheInvalidate(t *testing.T) {
	c := NewSetAssoc[int]("t", 8, 2, 64)
	e, _, _ := c.Insert(0x100)
	e.Payload = 7
	ev, ok := c.Invalidate(0x100)
	if !ok || ev.Payload != 7 {
		t.Fatalf("invalidate returned %+v", ev)
	}
	if c.Peek(0x100) != nil {
		t.Fatal("line still resident after invalidate")
	}
	if _, ok := c.Invalidate(0x100); ok {
		t.Fatal("second invalidate should return nil")
	}
}

func TestCacheDoubleInsertPanics(t *testing.T) {
	c := NewSetAssoc[int]("t", 8, 2, 64)
	c.Insert(0x100)
	defer func() {
		if recover() == nil {
			t.Fatal("double insert should panic")
		}
	}()
	c.Insert(0x100)
}

func TestCacheSetIndexing(t *testing.T) {
	c := NewSetAssoc[int]("t", 64, 4, 64) // 16 sets
	// Addresses differing only in offset bits map to the same set.
	if c.SetIndex(0x1000) != c.SetIndex(0x103f) {
		t.Fatal("same block mapped to different sets")
	}
	// Consecutive blocks map to consecutive sets modulo set count.
	s0 := c.SetIndex(0x0000)
	s1 := c.SetIndex(0x0040)
	if (s0+1)%16 != s1 {
		t.Fatalf("consecutive blocks: set %d then %d", s0, s1)
	}
}

// Property: a cache never holds more than `ways` blocks of the same set, and
// lookups after inserts behave like a bounded map.
func TestCacheAgainstReferenceModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	c := NewSetAssoc[uint64]("t", 32, 4, 64)
	resident := make(map[Addr]uint64)
	for i := 0; i < 20000; i++ {
		a := Addr(rng.Intn(64)) * 64
		switch rng.Intn(3) {
		case 0: // insert if absent
			if c.Peek(a) == nil {
				e, ev, evicted := c.Insert(a)
				e.Payload = uint64(i)
				resident[a] = uint64(i)
				if evicted {
					if _, ok := resident[ev.Tag]; !ok {
						t.Fatalf("evicted non-resident %v", ev.Tag)
					}
					delete(resident, ev.Tag)
				}
			}
		case 1: // lookup
			e := c.Lookup(a)
			want, ok := resident[a]
			if ok != (e != nil) {
				t.Fatalf("residency mismatch for %v: model=%v cache=%v", a, ok, e != nil)
			}
			if e != nil && e.Payload != want {
				t.Fatalf("payload mismatch for %v", a)
			}
		case 2: // invalidate
			_, present := c.Invalidate(a)
			_, ok := resident[a]
			if ok != present {
				t.Fatalf("invalidate mismatch for %v", a)
			}
			delete(resident, a)
		}
		if c.CountValid() != len(resident) {
			t.Fatalf("count mismatch: cache=%d model=%d", c.CountValid(), len(resident))
		}
	}
}

func TestCacheForEach(t *testing.T) {
	c := NewSetAssoc[int]("t", 8, 2, 64)
	c.Insert(0x000)
	c.Insert(0x040)
	c.Insert(0x080)
	n := 0
	c.ForEach(func(e *Entry[int]) { n++ })
	if n != 3 {
		t.Fatalf("ForEach visited %d entries, want 3", n)
	}
}
