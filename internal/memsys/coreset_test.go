package memsys

import "testing"

// TestCoreSetBasics exercises membership across word boundaries (the 256-core
// set spans four uint64 words).
func TestCoreSetBasics(t *testing.T) {
	var s CoreSet
	if !s.Empty() || s.Count() != 0 {
		t.Fatal("zero value not empty")
	}
	for _, c := range []int{0, 7, 63, 64, 127, 128, 200, 255} {
		s.Add(c)
	}
	if s.Count() != 8 {
		t.Fatalf("Count = %d, want 8", s.Count())
	}
	for _, c := range []int{0, 63, 64, 255} {
		if !s.Has(c) {
			t.Errorf("Has(%d) = false after Add", c)
		}
	}
	if s.Has(1) || s.Has(129) || s.Has(254) {
		t.Error("Has reports cores never added")
	}
	s.Remove(64)
	if s.Has(64) || s.Count() != 7 {
		t.Error("Remove(64) failed")
	}
}

// TestCoreSetHasOther pins the "any sharer besides me" query used by the
// directory and the SAM false-sharing tests.
func TestCoreSetHasOther(t *testing.T) {
	var s CoreSet
	s.Add(200)
	if s.HasOther(200) {
		t.Error("HasOther(200) with only 200 present")
	}
	if !s.HasOther(3) {
		t.Error("HasOther(3) should see core 200")
	}
	s.Add(3)
	if !s.HasOther(200) {
		t.Error("HasOther(200) should see core 3")
	}
}

// TestCoreSetForEach checks enumeration order (ascending) across words.
func TestCoreSetForEach(t *testing.T) {
	var s CoreSet
	want := []int{5, 63, 70, 191, 255}
	for _, c := range want {
		s.Add(c)
	}
	var got []int
	s.ForEach(func(c int) { got = append(got, c) })
	if len(got) != len(want) {
		t.Fatalf("ForEach visited %d cores, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("ForEach[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

// TestCoreSetUnion checks that Union adds the other set's members in every
// word and keeps its own.
func TestCoreSetUnion(t *testing.T) {
	var a, b CoreSet
	a.Add(1)
	a.Add(130)
	b.Add(1)
	b.Add(64)
	b.Add(255)
	a.Union(&b)
	var got []int
	a.ForEach(func(c int) { got = append(got, c) })
	want := []int{1, 64, 130, 255}
	if len(got) != len(want) {
		t.Fatalf("union = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("union = %v, want %v", got, want)
		}
	}
	if b.Count() != 3 {
		t.Fatalf("Union changed its argument: %v", b.String())
	}
}
