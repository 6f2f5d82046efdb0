package stats

import (
	"strings"
	"testing"
)

func TestSetBasics(t *testing.T) {
	s := NewSet()
	if s.Get("x") != 0 {
		t.Fatal("fresh counter must be zero")
	}
	s.Inc("x")
	s.Add("x", 4)
	if s.Get("x") != 5 {
		t.Fatalf("x = %d, want 5", s.Get("x"))
	}
	s.Set("x", 2)
	if s.Get("x") != 2 {
		t.Fatal("Set failed")
	}
	s.Max("x", 10)
	s.Max("x", 3)
	if s.Get("x") != 10 {
		t.Fatal("Max failed")
	}
}

func TestSetNamesSorted(t *testing.T) {
	s := NewSet()
	s.Inc("b")
	s.Inc("a")
	s.Inc("c")
	names := s.Names()
	if len(names) != 3 || names[0] != "a" || names[2] != "c" {
		t.Fatalf("names = %v", names)
	}
}

func TestSnapshotIsCopy(t *testing.T) {
	s := NewSet()
	s.Add("a", 1)
	snap := s.Snapshot()
	s.Add("a", 1)
	if snap["a"] != 1 || s.Get("a") != 2 {
		t.Fatal("snapshot not isolated")
	}
}

func TestMerge(t *testing.T) {
	a, b := NewSet(), NewSet()
	a.Add("x", 1)
	b.Add("x", 2)
	b.Add("y", 3)
	a.MergeMap(b.Snapshot())
	if a.Get("x") != 3 || a.Get("y") != 3 {
		t.Fatalf("merge: %v", a.Snapshot())
	}
}

// Regression: peak counters (written via Max) used to be summed on merge,
// producing nonsense high-water marks when aggregating across runs.
func TestMergePeakCountersTakeMax(t *testing.T) {
	a, b := NewSet(), NewSet()
	a.Max(CtrNetInflightPeak, 7)
	b.Max(CtrNetInflightPeak, 5)
	b.Add(CtrNetMessages, 100)
	a.MergeMap(b.Snapshot())
	if got := a.Get(CtrNetInflightPeak); got != 7 {
		t.Fatalf("peak after merge = %d, want max(7,5) = 7", got)
	}
	a.MergeMap(b.Snapshot()) // merging again must still not inflate the peak
	if got := a.Get(CtrNetInflightPeak); got != 7 {
		t.Fatalf("peak after second merge = %d, want 7", got)
	}
	if got := a.Get(CtrNetMessages); got != 200 {
		t.Fatalf("sum counter after two merges = %d, want 200", got)
	}

	// The other direction: the incoming peak wins when larger.
	c := NewSet()
	c.Max(CtrDirPendqPeak, 2)
	d := NewSet()
	d.Max(CtrDirPendqPeak, 9)
	c.MergeMap(d.Snapshot())
	if got := c.Get(CtrDirPendqPeak); got != 9 {
		t.Fatalf("peak after merge = %d, want 9", got)
	}

	if !IsPeak(CtrNetInflightPeak) || IsPeak(CtrNetMessages) {
		t.Fatal("IsPeak misclassifies counters")
	}
}

func TestSumPrefixAndRatio(t *testing.T) {
	s := NewSet()
	s.Add("net.msg.req", 2)
	s.Add("net.msg.rsp", 3)
	s.Add("other", 10)
	if s.SumPrefix("net.msg.") != 5 {
		t.Fatalf("SumPrefix = %d", s.SumPrefix("net.msg."))
	}
	s.Set("hits", 30)
	s.Set("accesses", 60)
	if r := s.Ratio("hits", "accesses"); r != 0.5 {
		t.Fatalf("Ratio = %v", r)
	}
	if r := s.Ratio("hits", "nonexistent"); r != 0 {
		t.Fatal("Ratio with zero denominator must be 0")
	}
}

func TestResetAndString(t *testing.T) {
	s := NewSet()
	s.Add("alpha", 7)
	if !strings.Contains(s.String(), "alpha") {
		t.Fatal("String missing counter")
	}
	s.Reset()
	if len(s.Names()) != 0 {
		t.Fatal("Reset left counters behind")
	}
}
