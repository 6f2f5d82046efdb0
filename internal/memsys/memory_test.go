package memsys

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestMemoryZeroFill(t *testing.T) {
	m := NewMemory(64)
	b := m.ReadBlock(0x1234)
	if len(b) != 64 {
		t.Fatalf("block size %d", len(b))
	}
	for _, v := range b {
		if v != 0 {
			t.Fatal("untouched memory must read zero")
		}
	}
	if m.ByteAt(0xdeadbeef) != 0 {
		t.Fatal("untouched byte must read zero")
	}
	if m.BlocksAllocated() != 0 {
		t.Fatal("reads must not allocate")
	}
}

func TestMemoryReadWriteBlock(t *testing.T) {
	m := NewMemory(64)
	data := make([]byte, 64)
	for i := range data {
		data[i] = byte(i * 3)
	}
	m.WriteBlock(0x1000, data)
	got := m.ReadBlock(0x1020) // any address in the block
	if !bytes.Equal(got, data) {
		t.Fatal("block round trip failed")
	}
	// Returned slice must be a copy.
	got[0] = 0xff
	if m.ByteAt(0x1000) == 0xff {
		t.Fatal("ReadBlock must return a copy")
	}
}

func TestMemoryByteOps(t *testing.T) {
	m := NewMemory(64)
	m.SetByte(0x105, 0xab)
	if m.ByteAt(0x105) != 0xab {
		t.Fatal("byte round trip failed")
	}
	if m.ByteAt(0x104) != 0 || m.ByteAt(0x106) != 0 {
		t.Fatal("neighbouring bytes disturbed")
	}
	blk := m.ReadBlock(0x100)
	if blk[5] != 0xab {
		t.Fatal("byte not visible through block read")
	}
}

func TestMemoryByteBlockConsistency(t *testing.T) {
	f := func(addr uint16, v byte) bool {
		m := NewMemory(64)
		a := Addr(addr)
		m.SetByte(a, v)
		blk := m.ReadBlock(a)
		return blk[a.BlockOffset(64)] == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestOracleDetectsMismatch(t *testing.T) {
	o := NewOracle(64)
	o.CommitStore(0x100, []byte{1, 2, 3, 4}, 10)
	if !o.CheckLoad(0x100, []byte{1, 2, 3, 4}, 11, "ok") {
		t.Fatal("matching load flagged")
	}
	if o.CheckLoad(0x101, []byte{9}, 12, "bad") {
		t.Fatal("mismatching load not flagged")
	}
	if len(o.Violations()) != 1 {
		t.Fatalf("violations = %v", o.Violations())
	}
	if o.Expected(0x102) != 3 {
		t.Fatal("Expected wrong")
	}
}

func TestOracleOverwrite(t *testing.T) {
	o := NewOracle(64)
	o.CommitStore(0x40, []byte{1}, 1)
	o.CommitStore(0x40, []byte{2}, 2)
	if !o.CheckLoad(0x40, []byte{2}, 3, "latest") {
		t.Fatal("oracle did not track latest store")
	}
}

func TestOracleSameCycleTieAccepted(t *testing.T) {
	o := NewOracle(64)
	o.CommitStore(0x40, []byte{1}, 5)
	o.CommitStore(0x40, []byte{2}, 9)
	// A load committing in the same cycle as the last store may observe the
	// previous value (the two events are unordered at cycle resolution)...
	if !o.CheckLoad(0x40, []byte{1}, 9, "tie") {
		t.Fatal("same-cycle previous value must be accepted")
	}
	// ... but one cycle later it must not.
	if o.CheckLoad(0x40, []byte{1}, 10, "stale") {
		t.Fatal("stale value accepted after the tie cycle")
	}
	// And an unrelated value is never accepted, even in the tie cycle.
	if o.CheckLoad(0x40, []byte{7}, 9, "garbage") {
		t.Fatal("garbage accepted in tie cycle")
	}
}

func TestOracleLoadWindow(t *testing.T) {
	o := NewOracle(64)
	o.CommitStore(0x40, []byte{1}, 100)
	o.CommitStore(0x40, []byte{2}, 200)
	o.CommitStore(0x40, []byte{3}, 300)

	// A load whose serialization window spans a store may observe either
	// side of it.
	if !o.CheckLoadWindow(0x40, []byte{1}, 150, 250, "old side") {
		t.Fatal("value live at window start rejected")
	}
	if !o.CheckLoadWindow(0x40, []byte{2}, 150, 250, "new side") {
		t.Fatal("value live at window end rejected")
	}
	// Values dead before the window opened, or born after it closed, fail.
	if o.CheckLoadWindow(0x40, []byte{1}, 250, 260, "dead") {
		t.Fatal("value dead before issue accepted")
	}
	if o.CheckLoadWindow(0x40, []byte{3}, 150, 250, "future") {
		t.Fatal("value born after commit accepted")
	}
	// Window boundaries are inclusive: a store committing exactly at issue
	// keeps its predecessor acceptable (same-cycle tie), and exactly at
	// commit makes its successor acceptable.
	if !o.CheckLoadWindow(0x40, []byte{1}, 200, 210, "tie at issue") {
		t.Fatal("tie at issue rejected")
	}
	if !o.CheckLoadWindow(0x40, []byte{3}, 250, 300, "tie at commit") {
		t.Fatal("tie at commit rejected")
	}
	// The implicit initial version: every byte reads zero from cycle 0.
	if !o.CheckLoadWindow(0x40, []byte{0}, 0, 100, "initial zero") {
		t.Fatal("initial zero rejected")
	}
	if o.CheckLoadWindow(0x40, []byte{0}, 101, 150, "initial dead") {
		t.Fatal("initial zero accepted after overwrite")
	}
}

// TestOracleLoadLiveRecordsNothing checks that LoadLive gives
// CheckLoadWindow's verdict without recording a violation.
func TestOracleLoadLiveRecordsNothing(t *testing.T) {
	o := NewOracle(64)
	o.CommitStore(0x40, []byte{1, 1}, 100)
	o.CommitStore(0x40, []byte{2}, 200)
	for _, c := range []struct {
		v             []byte
		issue, commit uint64
		want          bool
	}{
		{[]byte{1, 1}, 150, 250, true},
		{[]byte{2, 1}, 150, 250, true},
		{[]byte{1, 0}, 150, 250, false},
		{[]byte{1}, 250, 260, false},
		{[]byte{0, 0}, 0, 100, true},
	} {
		if got := o.LoadLive(0x40, c.v, c.issue, c.commit); got != c.want {
			t.Errorf("LoadLive(%v, %d, %d) = %v, want %v", c.v, c.issue, c.commit, got, c.want)
		}
		if n := len(o.Violations()); n != 0 {
			t.Fatalf("LoadLive recorded %d violation(s)", n)
		}
		if got := o.CheckLoadWindow(0x40, c.v, c.issue, c.commit, "x"); got != c.want {
			t.Errorf("CheckLoadWindow(%v, %d, %d) = %v, LoadLive said %v", c.v, c.issue, c.commit, got, c.want)
		}
		o.violations = nil
	}
}

func TestOracleWindowHistoryBound(t *testing.T) {
	o := NewOracle(64)
	// Far more versions than the history cap; the newest ones must stay
	// exact, and truncation must never produce a false violation.
	for i := 1; i <= 4*maxVersions; i++ {
		o.CommitStore(0x40, []byte{byte(i)}, uint64(10*i))
	}
	last := 4 * maxVersions
	if !o.CheckLoadWindow(0x40, []byte{byte(last)}, uint64(10*last), uint64(10*last), "cur") {
		t.Fatal("current value rejected after truncation")
	}
	if !o.CheckLoadWindow(0x40, []byte{byte(last - 1)}, uint64(10*(last-1)), uint64(10*last), "prev") {
		t.Fatal("previous value in window rejected after truncation")
	}
	if o.CheckLoadWindow(0x40, []byte{byte(last - 1)}, uint64(10*last)+1, uint64(10*last)+2, "stale") {
		t.Fatal("stale value accepted after truncation")
	}
}

func TestOracleViolationCap(t *testing.T) {
	o := NewOracle(64)
	for i := 0; i < 100; i++ {
		o.CheckLoad(Addr(i), []byte{1}, 1, "x")
	}
	if len(o.Violations()) != 32 {
		t.Fatalf("violation list should cap at 32, got %d", len(o.Violations()))
	}
}
