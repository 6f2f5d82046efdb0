package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"fscoherence/internal/memsys"
)

func TestTracerRingAndTotal(t *testing.T) {
	tr := NewTracer(Config{TraceCapacity: 4})
	for i := 0; i < 10; i++ {
		tr.Emit(Event{Cycle: uint64(i), Kind: KindNetSend, Core: -1, Slice: -1})
	}
	if got := tr.Total(); got != 10 {
		t.Fatalf("Total = %d, want 10", got)
	}
	ev := tr.Events()
	if len(ev) != 4 {
		t.Fatalf("len(Events) = %d, want 4 (ring capacity)", len(ev))
	}
	for i, e := range ev {
		if want := uint64(6 + i); e.Cycle != want {
			t.Errorf("event %d: cycle %d, want %d (oldest-first after wrap)", i, e.Cycle, want)
		}
	}
	if got := tr.Dropped(); got != 6 {
		t.Errorf("Dropped = %d, want 6", got)
	}
	tr.Reset()
	if tr.Total() != 0 || len(tr.Events()) != 0 {
		t.Errorf("Reset left events behind")
	}
}

func TestNilTracerIsSafe(t *testing.T) {
	var tr *Tracer
	tr.Emit(Event{})
	tr.SetTap(func(Event) { t.Fatal("a nil tracer's tap received an event") })
	tr.Emit(Event{})
	tr.Reset()
	if tr.Events() != nil || tr.Total() != 0 || tr.Dropped() != 0 {
		t.Fatal("nil tracer should report empty state")
	}
}

func TestDisabledPathsDoNotAllocate(t *testing.T) {
	var tr *Tracer
	var h *Histogram
	var m *Metrics
	allocs := testing.AllocsPerRun(1000, func() {
		tr.Emit(Event{Cycle: 1, Kind: KindNetSend, Core: 0, Slice: -1, Name: "GetX"})
		h.Observe(42)
		m.Sample(1, nil)
	})
	if allocs != 0 {
		t.Fatalf("disabled obs path allocated %.1f times per op, want 0", allocs)
	}
}

func TestEnabledEmitDoesNotAllocateAfterWarmup(t *testing.T) {
	tr := NewTracer(Config{TraceCapacity: 64}) // small ring, wraps during the run
	h := &Histogram{Name: "x"}
	allocs := testing.AllocsPerRun(1000, func() {
		tr.Emit(Event{Cycle: 1, Kind: KindNetSend, Core: 0, Slice: -1, Name: "GetX"})
		h.Observe(42)
	})
	if allocs != 0 {
		t.Fatalf("enabled emit allocated %.1f times per event, want 0", allocs)
	}
}

func TestFilterMatch(t *testing.T) {
	blk := uint64(63)
	cases := []struct {
		name string
		f    Filter
		e    Event
		want bool
	}{
		{"zero matches", Filter{}, Event{Kind: KindCommit, Core: 3}, true},
		{"core hit", Filter{Core: 2, HasCore: true}, Event{Kind: KindCommit, Core: 2}, true},
		{"core miss", Filter{Core: 2, HasCore: true}, Event{Kind: KindCommit, Core: 3}, false},
		{"core filters coreless", Filter{Core: 2, HasCore: true}, Event{Kind: KindDirState, Core: -1}, false},
		{"addr block hit", Filter{Addr: 0x1040, HasAddr: true, BlockMask: blk},
			Event{Kind: KindCommit, Addr: 0x107f}, true},
		{"addr block miss", Filter{Addr: 0x1040, HasAddr: true, BlockMask: blk},
			Event{Kind: KindCommit, Addr: 0x1080}, false},
		{"kind hit", Filter{Kinds: Mask(KindNetSend, KindNetRecv)},
			Event{Kind: KindNetRecv}, true},
		{"kind miss", Filter{Kinds: Mask(KindNetSend)},
			Event{Kind: KindCommit}, false},
		{"zero leaves out misses", Filter{}, Event{Kind: KindMiss}, false},
		{"misses on request", Filter{Kinds: Mask(KindMiss)}, Event{Kind: KindMiss}, true},
	}
	for _, c := range cases {
		if got := c.f.Match(c.e); got != c.want {
			t.Errorf("%s: Match = %v, want %v", c.name, got, c.want)
		}
	}
}

// TestTapSeesEveryEvent: the tap receives every offered event, before the
// filter and with no ring, in order; the tracer records only what the filter
// keeps.
func TestTapSeesEveryEvent(t *testing.T) {
	tr := NewTracer(Config{TraceCapacity: -1, Filter: Filter{Kinds: Mask(KindDetect)}})
	var tapped []Kind
	tr.SetTap(func(e Event) { tapped = append(tapped, e.Kind) })
	for _, k := range []Kind{KindCommit, KindDetect, KindMiss} {
		tr.Emit(Event{Kind: k})
	}
	if len(tapped) != 3 || tapped[0] != KindCommit || tapped[1] != KindDetect || tapped[2] != KindMiss {
		t.Fatalf("tap saw %v", tapped)
	}
	if tr.Total() != 1 || len(tr.Events()) != 0 {
		t.Fatalf("total %d, ring %d; want 1 recorded, none kept", tr.Total(), len(tr.Events()))
	}
	kept := NewTracer(Config{TraceCapacity: 4, Filter: Filter{Kinds: Mask(KindDetect)}})
	for _, k := range []Kind{KindCommit, KindDetect, KindMiss} {
		kept.Emit(Event{Kind: k})
	}
	if ev := kept.Events(); kept.Total() != 1 || len(ev) != 1 || ev[0].Kind != KindDetect {
		t.Fatalf("ring kept %v (total %d), want the one detect event", ev, kept.Total())
	}
	tr.SetTap(nil)
	tr.Emit(Event{Kind: KindCommit})
	if len(tapped) != 3 {
		t.Fatal("a removed tap still receives events")
	}
}

func TestParseFilter(t *testing.T) {
	f, err := ParseFilter("addr=0x1040,core=3,class=net|prv", 64)
	if err != nil {
		t.Fatal(err)
	}
	if !f.HasAddr || f.Addr != 0x1040 || !f.HasCore || f.Core != 3 || f.BlockMask != 63 {
		t.Fatalf("parsed %+v", f)
	}
	if !f.Kinds.Has(KindNetSend) || !f.Kinds.Has(KindPrvBegin) || f.Kinds.Has(KindCommit) {
		t.Fatalf("kind mask %b", f.Kinds)
	}
	if _, err := ParseFilter("bogus=1", 64); err == nil {
		t.Fatal("want error for unknown key")
	}
	if _, err := ParseFilter("class=nope", 64); err == nil {
		t.Fatal("want error for unknown class")
	}
	if f, err := ParseFilter("", 64); err != nil || f.HasCore || f.HasAddr {
		t.Fatalf("empty spec: %+v, %v", f, err)
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := &Histogram{Name: "lat"}
	for _, v := range []uint64{0, 1, 1, 2, 3, 4, 7, 8, 1000} {
		h.Observe(v)
	}
	if h.Count() != 9 || h.Min() != 0 || h.Max() != 1000 {
		t.Fatalf("count=%d min=%d max=%d", h.Count(), h.Min(), h.Max())
	}
	want := []Bucket{
		{0, 0, 1},      // 0
		{1, 1, 2},      // 1, 1
		{2, 3, 2},      // 2, 3
		{4, 7, 2},      // 4, 7
		{8, 15, 1},     // 8
		{512, 1023, 1}, // 1000
	}
	got := h.Buckets()
	if len(got) != len(want) {
		t.Fatalf("buckets %+v, want %+v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("bucket %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestMetricsCSV(t *testing.T) {
	m := NewMetrics(Config{MetricsInterval: 100})
	m.Sample(100, map[string]uint64{"a": 1, "b": 2})
	m.Sample(200, map[string]uint64{"a": 3, "c": 4})
	m.Hist("lat").Observe(5)
	var buf bytes.Buffer
	if err := m.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	wantLines := []string{
		"cycle,a,b,c",
		"100,1,2,0",
		"200,3,0,4",
		"# histogram lat: n=1 mean=5.00 min=5 max=5",
		"4,7,1",
	}
	for _, w := range wantLines {
		if !strings.Contains(got, w) {
			t.Errorf("CSV missing %q in:\n%s", w, got)
		}
	}
}

func TestChromeTraceExport(t *testing.T) {
	events := []Event{
		{Cycle: 10, Kind: KindNetSend, Core: 0, Slice: -1, Addr: 0x40, Name: "GetX", Arg: 1, Arg2: PackSrcDst(0, 8)},
		{Cycle: 22, Kind: KindNetRecv, Core: -1, Slice: 0, Addr: 0x40, Name: "GetX", Arg: 1, Arg2: PackSrcDst(0, 8)},
		{Cycle: 23, Kind: KindDirState, Core: -1, Slice: 0, Addr: 0x40, Name: "I->M"},
		{Cycle: 30, Kind: KindPrvBegin, Core: -1, Slice: 0, Addr: 0x40, Arg: 2},
		{Cycle: 35, Kind: KindCommit, Core: 2, Slice: -1, Addr: 0x44, Name: "store", Arg: 0xff, Arg2: 4},
		{Cycle: 90, Kind: KindPrvTerminate, Core: -1, Slice: 0, Addr: 0x40, Name: "conflict", Arg: 60, Arg2: 3},
	}
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, events); err != nil {
		t.Fatal(err)
	}
	var tf struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &tf); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	var sawSpan, sawBegin, sawTerm bool
	for _, te := range tf.TraceEvents {
		for _, field := range []string{"ph", "ts", "pid", "tid", "name"} {
			if _, ok := te[field]; !ok {
				t.Fatalf("event %v missing required field %q", te, field)
			}
		}
		name := te["name"].(string)
		switch {
		case te["ph"] == "X" && strings.HasPrefix(name, "PRV"):
			sawSpan = true
			if te["dur"].(float64) != 60 {
				t.Errorf("PRV span dur = %v, want 60", te["dur"])
			}
		case name == "prv.begin":
			sawBegin = true
		case name == "prv.terminate":
			sawTerm = true
		}
	}
	if !sawSpan || !sawBegin || !sawTerm {
		t.Fatalf("span=%v begin=%v term=%v, want all true", sawSpan, sawBegin, sawTerm)
	}
}

func TestEventString(t *testing.T) {
	e := Event{Cycle: 123, Kind: KindNetSend, Core: 0, Slice: -1,
		Addr: memsys.Addr(0x40), Name: "GetX", Arg: 7, Arg2: PackSrcDst(0, 8)}
	s := e.String()
	for _, want := range []string{"C0000123", "net.send", "GetX", "n0->n8", "seq=7"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
	m := Event{Cycle: 9, Kind: KindMiss, Core: 2, Slice: -1, Addr: memsys.Addr(0x40), Arg: 41}
	if got, want := m.String(), "C0000009 l1.miss       core2  0x40 lat=41"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}
