package forensics

import (
	"reflect"
	"testing"

	"fscoherence/internal/memsys"
	"fscoherence/internal/network"
	"fscoherence/internal/obs"
)

func TestGroundTruthMarkReplaces(t *testing.T) {
	gt := NewGroundTruth(64)
	gt.Mark(0x100000, 64, LabelPrivate)
	gt.Mark(0x100000, 64, LabelShared)
	if got := gt.Label(0x100008); got != LabelShared {
		t.Fatalf("label after re-mark = %v, want shared", got)
	}
	// Marks cover every overlapped line, at any alignment.
	gt.Mark(0x100030, 32, LabelFalse)
	if gt.Label(0x100000) != LabelFalse || gt.Label(0x100040) != LabelFalse {
		t.Fatalf("unaligned mark missed a line: %v / %v",
			gt.Label(0x100000), gt.Label(0x100040))
	}
	if n := len(gt.Lines()); n != 2 {
		t.Fatalf("lines = %d, want 2", n)
	}
}

func TestLabelString(t *testing.T) {
	cases := map[Label]string{
		LabelPrivate:              "private",
		LabelShared:               "true-sharing",
		LabelFalse:                "false-sharing",
		LabelShared | LabelFalse:  "mixed",
		LabelPrivate | LabelFalse: "mixed",
		0:                         "unlabeled",
	}
	for l, want := range cases {
		if l.String() != want {
			t.Errorf("%d.String() = %q, want %q", l, l.String(), want)
		}
	}
}

// Event constructors for feeding the recorder the way a run does.

func commit(blk memsys.Addr, core, off, size int, kind string, cycle uint64) obs.Event {
	return obs.Event{Cycle: cycle, Kind: obs.KindCommit, Core: int16(core), Slice: -1,
		Addr: blk + memsys.Addr(off), Name: kind, Arg2: uint64(size)}
}

func miss(blk memsys.Addr, core int, latency, cycle uint64) obs.Event {
	return obs.Event{Cycle: cycle, Kind: obs.KindMiss, Core: int16(core), Slice: -1, Addr: blk, Arg: latency}
}

func send(blk memsys.Addr, op network.Op, cycle uint64) obs.Event {
	return obs.Event{Cycle: cycle, Kind: obs.KindNetSend, Core: -1, Slice: 0, Addr: blk, Name: op.String()}
}

func decide(blk memsys.Addr, kind obs.Kind, cycle uint64) obs.Event {
	return obs.Event{Cycle: cycle, Kind: kind, Core: -1, Slice: 0, Addr: blk}
}

func TestRecorderHeatAndTimeline(t *testing.T) {
	r := New()
	r.Begin(64)
	const blk = memsys.Addr(0x200000)
	r.Record(commit(blk, 0, 0, 8, "store", 10))
	r.Record(commit(blk, 0, 0, 8, "rmw", 12)) // an atomic is one write
	r.Record(commit(blk, 3, 8, 8, "load", 14))
	ln := r.Line(blk + 5) // any address inside the line resolves
	if ln == nil {
		t.Fatal("line not recorded")
	}
	if ln.FirstCycle != 10 || ln.LastCycle != 14 {
		t.Fatalf("cycle bounds [%d,%d], want [10,14]", ln.FirstCycle, ln.LastCycle)
	}
	if ln.Reads != 1 || ln.Writes != 2 {
		t.Fatalf("reads/writes = %d/%d, want 1/2", ln.Reads, ln.Writes)
	}
	if h := ln.Heat(0); h[0] != 2 || h[7] != 2 || h[8] != 0 {
		t.Fatalf("core-0 heat = %v", h[:9])
	}
	if h := ln.Heat(3); h[8] != 1 {
		t.Fatalf("core-3 heat byte 8 = %d, want 1", h[8])
	}
	if got := ln.Cores(); len(got) != 2 || got[0] != 0 || got[1] != 3 {
		t.Fatalf("cores = %v, want [0 3]", got)
	}
	if w := ln.Writers(); len(w) != 1 || w[0] != 0 {
		t.Fatalf("writers = %v, want [0]", w)
	}
	if !ln.Contended() {
		t.Fatal("two cores + a write must count as contended")
	}

	det := decide(blk, obs.KindDetect, 20)
	det.Arg = 1
	begin := decide(blk, obs.KindPrvBegin, 30)
	begin.Arg = 2 // the requesting core
	term := decide(blk, obs.KindPrvTerminate, 45)
	term.Name, term.Arg = "conflict", 15
	for _, e := range []obs.Event{det, begin, term} {
		r.Record(e)
	}
	want := []Decision{
		{Cycle: 20, Kind: DecDetect, Core: -1, Arg: 1},
		{Cycle: 30, Kind: DecPrvBegin, Core: 2},
		{Cycle: 45, Kind: DecPrvTerminate, Core: -1, Cause: "conflict", Arg: 15},
	}
	if !reflect.DeepEqual(ln.Timeline, want) {
		t.Fatalf("timeline = %+v, want %+v", ln.Timeline, want)
	}
	if c, ok := ln.DetectCycle(); !ok || c != 20 {
		t.Fatalf("detect cycle = %d/%v, want 20/true", c, ok)
	}
	if ln.PrvCycle != 30 || ln.PrvEpisodes != 1 {
		t.Fatalf("prv cycle/episodes = %d/%d, want 30/1", ln.PrvCycle, ln.PrvEpisodes)
	}
}

func TestRecorderBeforeAfterSplit(t *testing.T) {
	r := New()
	r.Begin(64)
	const blk = memsys.Addr(0x300000)
	r.Record(send(blk, network.OpInv, 5))
	r.Record(miss(blk, 1, 40, 6))
	r.Record(decide(blk, obs.KindPrvBegin, 10))
	r.Record(send(blk, network.OpInvPrv, 15))
	r.Record(send(blk, network.OpFwdGetX, 15))
	r.Record(miss(blk, 2, 40, 16))
	r.Record(miss(blk, 3, 60, 17))
	// Neither a shared intervention nor a receive costs a core its copy.
	r.Record(send(blk, network.OpFwdGetS, 18))
	recv := send(blk, network.OpInv, 19)
	recv.Kind = obs.KindNetRecv
	r.Record(recv)
	ln := r.Line(blk)
	if ln.InvBefore != 1 || ln.InvAfter != 2 {
		t.Fatalf("inv before/after = %d/%d, want 1/2", ln.InvBefore, ln.InvAfter)
	}
	if ln.MissBefore != 1 || ln.MissAfter != 2 {
		t.Fatalf("miss before/after = %d/%d, want 1/2", ln.MissBefore, ln.MissAfter)
	}
	if ln.MissCyclesBefore != 40 || ln.MissCyclesAfter != 100 {
		t.Fatalf("miss cycles before/after = %d/%d, want 40/100",
			ln.MissCyclesBefore, ln.MissCyclesAfter)
	}
}

// score builds a recorder exercising four ground-truth lines: a detected FS
// line (TP), an undetected contended FS line (FN), a detected truly shared
// line (FP), and a detected mixed line (excluded).
func scoreFixture() (*Recorder, *GroundTruth) {
	gt := NewGroundTruth(64)
	r := New()
	r.Begin(64)
	contend := func(blk memsys.Addr) {
		r.Record(commit(blk, 0, 0, 8, "store", 100))
		r.Record(commit(blk, 1, 8, 8, "store", 110))
	}
	detect := func(blk memsys.Addr, cycle uint64) {
		r.Record(decide(blk, obs.KindDetect, cycle))
	}

	gt.Mark(0x1000, 64, LabelFalse) // TP: contended, detected at 150
	contend(0x1000)
	detect(0x1000, 150)

	gt.Mark(0x2000, 64, LabelFalse) // FN: contended, never detected
	contend(0x2000)

	gt.Mark(0x3000, 64, LabelShared) // FP: truly shared but detected
	contend(0x3000)
	detect(0x3000, 160)

	gt.Mark(0x4000, 64, LabelShared|LabelFalse) // mixed: not scored
	contend(0x4000)
	detect(0x4000, 170)

	gt.Mark(0x5000, 64, LabelFalse) // uncontended FS: not a positive
	r.Record(commit(0x5000, 0, 0, 8, "store", 100))

	// Detection outside the ground truth: reported, not scored.
	contend(0x6000)
	detect(0x6000, 180)
	return r, gt
}

func TestScore(t *testing.T) {
	r, gt := scoreFixture()
	a := Score(r, gt)
	if a.TP != 1 || a.FP != 1 || a.FN != 1 || a.Mixed != 1 || a.Unlabeled != 1 {
		t.Fatalf("TP/FP/FN/Mixed/Unlabeled = %d/%d/%d/%d/%d, want 1/1/1/1/1",
			a.TP, a.FP, a.FN, a.Mixed, a.Unlabeled)
	}
	if a.LabeledFS != 3 || a.Positives != 2 {
		t.Fatalf("labeledFS/positives = %d/%d, want 3/2", a.LabeledFS, a.Positives)
	}
	if a.Precision != 0.5 || a.Recall != 0.5 {
		t.Fatalf("precision/recall = %v/%v, want 0.5/0.5", a.Precision, a.Recall)
	}
	if a.MeanTTD != 50 { // detected at 150, first access at 100
		t.Fatalf("mean TTD = %v, want 50", a.MeanTTD)
	}
}

func TestScoreVacuous(t *testing.T) {
	a := Score(nil, nil)
	if a.Precision != 1 || a.Recall != 1 {
		t.Fatalf("vacuous precision/recall = %v/%v, want 1/1", a.Precision, a.Recall)
	}
	r := New()
	r.Begin(64)
	a = Score(r, NewGroundTruth(64))
	if a.Precision != 1 || a.Recall != 1 {
		t.Fatalf("empty precision/recall = %v/%v, want 1/1", a.Precision, a.Recall)
	}
}
