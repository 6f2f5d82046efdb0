package core

import (
	"testing"
	"testing/quick"

	"fscoherence/internal/coherence"
	"fscoherence/internal/memsys"
	"fscoherence/internal/stats"
)

func pamCfg(gran int) Config {
	cfg := DefaultConfig(8, 64, coherence.FSLite)
	cfg.Granularity = gran
	return cfg
}

func newTestPAM(gran int) *PAM {
	return NewPAM(pamCfg(gran), 0, stats.NewSet())
}

// has is the §V-B local-hit test through Commit: a checked commit of the
// access, after which the entry and the update counter are restored so the
// probe records nothing.
func has(p *PAM, addr memsys.Addr, off, size int, write bool) bool {
	e := p.entry(addr)
	if e == nil {
		return false
	}
	saved, n := *e, p.stats.GetID(stats.IDPAMUpdates)
	ok := p.Commit(addr, off, size, true, !write, write)
	*e = saved
	p.stats.SetID(stats.IDPAMUpdates, n)
	return ok
}

// record is an unchecked commit of one read or one write.
func record(p *PAM, addr memsys.Addr, off, size int, write bool) {
	p.Commit(addr, off, size, false, !write, write)
}

func TestPAMAllocateAndAccess(t *testing.T) {
	p := newTestPAM(1)
	p.Allocate(0x1000, false)
	if has(p, 0x1000, 0, 8, false) {
		t.Fatal("fresh entry should have no bits")
	}
	record(p, 0x1000, 0, 8, false)
	if !has(p, 0x1000, 0, 8, false) {
		t.Fatal("read bits not set")
	}
	if has(p, 0x1000, 0, 8, true) {
		t.Fatal("read must not grant write bits")
	}
	record(p, 0x1000, 4, 4, true)
	if !has(p, 0x1000, 4, 4, true) {
		t.Fatal("write bits not set")
	}
	if has(p, 0x1000, 0, 8, true) {
		t.Fatal("write bits must cover only the written range")
	}
	// §V-B: a read is satisfied by read OR write bits.
	if !has(p, 0x1000, 4, 4, false) {
		t.Fatal("write bits must satisfy a read check")
	}
}

func TestPAMAccessWithoutEntryPanics(t *testing.T) {
	p := newTestPAM(1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	record(p, 0x1000, 0, 8, false)
}

func TestPAMTakeEntryClears(t *testing.T) {
	p := newTestPAM(1)
	p.Allocate(0x1000, true)
	record(p, 0x1000, 0, 2, false)
	record(p, 0x1000, 8, 4, true)
	r, w, sendMD, ok := p.TakeEntry(0x1000)
	if !ok || !sendMD {
		t.Fatal("TakeEntry lost the entry or SEND_MD")
	}
	if r != 0b11 {
		t.Fatalf("read vector = %b", r)
	}
	if w != 0b1111<<8 {
		t.Fatalf("write vector = %b", w)
	}
	if _, _, _, ok := p.TakeEntry(0x1000); ok {
		t.Fatal("entry must be gone after TakeEntry")
	}
	if p.Entries() != 0 {
		t.Fatal("entry count wrong")
	}
}

func TestPAMSendMDBit(t *testing.T) {
	p := newTestPAM(1)
	p.Allocate(0x40, false)
	if p.PeekSendMD(0x40) {
		t.Fatal("SEND_MD should start clear")
	}
	p.SetSendMD(0x40, true)
	if !p.PeekSendMD(0x40) {
		t.Fatal("SEND_MD not set")
	}
	p.SetSendMD(0x40, false)
	if p.PeekSendMD(0x40) {
		t.Fatal("SEND_MD not cleared")
	}
	// Setting on a missing entry is a no-op, not a panic.
	p.SetSendMD(0x999940, true)
}

func TestPAMBlockAliasing(t *testing.T) {
	p := newTestPAM(1)
	p.Allocate(0x1000, false)
	record(p, 0x103f, 0x3f, 1, true) // same block, last byte
	if !has(p, 0x1000, 63, 1, true) {
		t.Fatal("in-block addressing broken")
	}
	r, w, ok := p.PeekEntry(0x1010)
	if !ok || r != 0 || w != 1<<63 {
		t.Fatalf("PeekEntry r=%b w=%b ok=%v", r, w, ok)
	}
}

func TestPAMCoarseGranularity(t *testing.T) {
	for _, g := range []int{2, 4, 8} {
		p := newTestPAM(g)
		p.Allocate(0, false)
		record(p, 0, 1, 1, true) // one byte within the first grain
		// The whole grain is marked...
		if !has(p, 0, 0, g, true) {
			t.Fatalf("g=%d: grain not covered", g)
		}
		// ...but not the next grain.
		if has(p, 0, g, 1, true) {
			t.Fatalf("g=%d: next grain spuriously covered", g)
		}
		// An access spanning two grains marks both.
		record(p, 0, g-1, 2, false)
		if !has(p, 0, 0, 2*g, false) {
			t.Fatalf("g=%d: spanning access not covered", g)
		}
	}
}

func TestPAMDrop(t *testing.T) {
	p := newTestPAM(1)
	p.Allocate(0x80, true)
	p.Drop(0x80)
	if _, _, _, ok := p.TakeEntry(0x80); ok {
		t.Fatal("Drop did not remove the entry")
	}
}

// Property: a checked Commit of a range succeeds exactly when every byte of the range was
// covered by a previous access of the right kind.
func TestPAMCoverageProperty(t *testing.T) {
	type access struct {
		Off   uint8
		Size  uint8
		Write bool
	}
	f := func(accs []access, qOff, qSize uint8, qWrite bool) bool {
		p := newTestPAM(1)
		p.Allocate(0, false)
		var rd, wr [64]bool
		for _, a := range accs {
			off := int(a.Off) % 64
			size := 1 << (int(a.Size) % 4)
			if off+size > 64 {
				off = 64 - size
			}
			record(p, 0, off, size, a.Write)
			for i := off; i < off+size; i++ {
				if a.Write {
					wr[i] = true
				} else {
					rd[i] = true
				}
			}
		}
		off := int(qOff) % 64
		size := 1 << (int(qSize) % 4)
		if off+size > 64 {
			off = 64 - size
		}
		want := true
		for i := off; i < off+size; i++ {
			if qWrite && !wr[i] {
				want = false
			}
			if !qWrite && !rd[i] && !wr[i] {
				want = false
			}
		}
		return has(p, 0, off, size, qWrite) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestPAMFailedCheckChangesNothing(t *testing.T) {
	p := newTestPAM(1)
	p.Allocate(0x1000, false)
	record(p, 0x1000, 0, 4, true)
	n := p.stats.GetID(stats.IDPAMUpdates)
	// The write bits cover [0,4) only, so a checked store or RMW of [0,8)
	// must fail and leave both vectors and the counter alone.
	if p.Commit(0x1000, 0, 8, true, false, true) {
		t.Fatal("checked store past the write bits succeeded")
	}
	if p.Commit(0x1000, 0, 8, true, true, true) {
		t.Fatal("checked RMW past the write bits succeeded")
	}
	if p.Commit(0x1000, 16, 8, true, true, false) {
		t.Fatal("checked load of untouched bytes succeeded")
	}
	r, w, _ := p.PeekEntry(0x1000)
	if r != 0 || w != 0b1111 {
		t.Fatalf("failed checks changed the entry: r=%b w=%b", r, w)
	}
	if got := p.stats.GetID(stats.IDPAMUpdates); got != n {
		t.Fatalf("failed checks counted %d pam.updates", got-n)
	}
}

func TestPAMRMWCountsTwoUpdates(t *testing.T) {
	p := newTestPAM(1)
	p.Allocate(0x1000, false)
	if !p.Commit(0x1000, 8, 8, false, true, true) {
		t.Fatal("unchecked commit failed")
	}
	if got := p.stats.GetID(stats.IDPAMUpdates); got != 2 {
		t.Fatalf("an RMW counted %d pam.updates, want 2 (read and write)", got)
	}
	r, w, _ := p.PeekEntry(0x1000)
	if r != 0xff<<8 || w != 0xff<<8 {
		t.Fatalf("RMW bits r=%b w=%b", r, w)
	}
	// A checked RMW over its own write bits succeeds and counts 2 more.
	if !p.Commit(0x1000, 8, 8, true, true, true) {
		t.Fatal("checked RMW over its write bits failed")
	}
	if got := p.stats.GetID(stats.IDPAMUpdates); got != 4 {
		t.Fatalf("pam.updates = %d after two RMWs, want 4", got)
	}
}

func TestPAMDroppedEntryIsRecycledClean(t *testing.T) {
	p := newTestPAM(1)
	p.Allocate(0x1000, true)
	record(p, 0x1000, 0, 8, true)
	record(p, 0x1000, 8, 8, false)
	p.Drop(0x1000)
	if _, _, _, ok := p.TakeEntry(0x1000); ok {
		t.Fatal("dropped entry still mapped")
	}
	p.Allocate(0x2000, false)
	if len(p.free) != 0 {
		t.Fatalf("Allocate left %d entries on the freelist, want the dropped one reused", len(p.free))
	}
	r, w, ok := p.PeekEntry(0x2000)
	if !ok || r != 0 || w != 0 || p.PeekSendMD(0x2000) {
		t.Fatalf("recycled entry not clean: r=%b w=%b sendMD=%v", r, w, p.PeekSendMD(0x2000))
	}
	if p.Has(0x1000) {
		t.Fatal("the mru slot still maps the dropped block")
	}
}
