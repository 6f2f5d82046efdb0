package coherence_test

import (
	"testing"

	. "fscoherence/internal/coherence"
	"fscoherence/internal/core"
	"fscoherence/internal/memsys"
	"fscoherence/internal/stats"
)

// pingPong drives the Fig. 1/Fig. 6 pattern: cores 0 and 1 repeatedly write
// disjoint offsets of one line.
func pingPong(h *harness, rounds int) {
	for i := 0; i < rounds; i++ {
		h.store(0, blk+8, 8, uint64(i+1))
		h.store(1, blk+16, 8, uint64(i+100))
	}
}

func TestFigure6DetectionFlow(t *testing.T) {
	// FSDetect: metadata piggybacks on interventions (REQ_MD -> REP_MD),
	// the SAM records disjoint writers, and the block is flagged once FC
	// and IC cross the threshold.
	h := newHarness(t, FSDetect, nil)
	pingPong(h, 12)
	h.settle()
	if h.st.Get(stats.CtrFSMetadataMsgs) == 0 {
		t.Fatal("no metadata messages were exchanged")
	}
	dets := h.pols[0].Detections()
	if len(dets) != 1 || dets[0].Addr != blk.BlockAlign(64) {
		t.Fatalf("detections = %+v", dets)
	}
	if len(dets[0].Writers) != 2 {
		t.Fatalf("writers = %v, want cores 0 and 1", dets[0].Writers)
	}
	// Detection-only: the block must never be privatized.
	if h.st.Get(stats.CtrFSPrivatized) != 0 {
		t.Fatal("FSDetect privatized a block")
	}
	if h.dirState(blk) == DirPrv {
		t.Fatal("directory entered PRV under FSDetect")
	}
}

func TestFigure7PrivatizationInitiation(t *testing.T) {
	h := newHarness(t, FSLite, nil)
	pingPong(h, 12)
	h.settle()
	if h.st.Get(stats.CtrFSPrivatized) == 0 {
		t.Fatal("the falsely shared line was not privatized")
	}
	if h.dirState(blk) != DirPrv {
		t.Fatalf("dir state = %v, want PRV", h.dirState(blk))
	}
	// Both cores hold PRV copies.
	if h.l1s[0].StateOf(blk) != L1Prv || h.l1s[1].StateOf(blk) != L1Prv {
		t.Fatalf("L1 states: %v / %v", h.l1s[0].StateOf(blk), h.l1s[1].StateOf(blk))
	}
}

func TestFigure8ChkAndLocalHits(t *testing.T) {
	h := newHarness(t, FSLite, nil)
	pingPong(h, 12)
	h.settle()
	if h.dirState(blk) != DirPrv {
		t.Skip("line not privatized; threshold changed?")
	}
	// First touch of a fresh offset goes through a CHK (two-hop)...
	chkBefore := h.st.Get(stats.CtrFSChkRequests)
	h.store(2, blk+24, 8, 7) // core 2 joins via demand, no CHK yet
	h.store(2, blk+32, 8, 8) // second offset: GetXCHK
	if h.st.Get(stats.CtrFSChkRequests) != chkBefore+1 {
		t.Fatalf("chk requests = %d, want %d", h.st.Get(stats.CtrFSChkRequests), chkBefore+1)
	}
	// ...and subsequent accesses to checked bytes are pure local hits.
	msgs := h.st.Get(stats.CtrNetMessages)
	for i := 0; i < 5; i++ {
		h.store(2, blk+24, 8, uint64(i))
		if v := h.load(2, blk+32, 8); v != 8 && i == 0 {
			t.Fatalf("read back %d", v)
		}
	}
	if h.st.Get(stats.CtrNetMessages) != msgs {
		t.Fatal("checked bytes still generated traffic")
	}
}

func TestFigure9TerminationOnConflict(t *testing.T) {
	h := newHarness(t, FSLite, nil)
	pingPong(h, 12)
	h.settle()
	if h.dirState(blk) != DirPrv {
		t.Skip("line not privatized")
	}
	// Core 2 reads core 0's bytes: a read-write conflict terminates the
	// episode, and the merged line must carry both cores' last values.
	v0 := h.load(2, blk+8, 8)
	h.settle()
	if h.dirState(blk) == DirPrv {
		t.Fatal("conflict did not terminate the privatized episode")
	}
	if h.st.Get(stats.CtrFSTermConflict) == 0 {
		t.Fatal("termination reason not recorded")
	}
	if v0 != 12 {
		t.Fatalf("merged value for core 0's slot = %d, want 12", v0)
	}
	if v1 := h.load(2, blk+16, 8); v1 != 111 {
		t.Fatalf("merged value for core 1's slot = %d, want 111", v1)
	}
}

func TestPrvEvictionMergesBytes(t *testing.T) {
	// A core evicting its privatized copy writes back only its own bytes
	// (§V-D): the other core's in-cache updates must not be clobbered.
	h := newHarness(t, FSLite, func(p *Params, _ *core.Config) {
		p.L1Entries = 4
		p.L1Ways = 2
	})
	pingPong(h, 12)
	h.settle()
	if h.dirState(blk) != DirPrv {
		t.Skip("line not privatized")
	}
	// Evict core 0's PRV copy with conflict fills.
	for i := 1; i <= 4; i++ {
		h.load(0, blk+memsys.Addr(i*0x1000), 8)
	}
	h.settle()
	if h.l1s[0].StateOf(blk) != L1Invalid {
		t.Skip("PRV copy survived the fills")
	}
	// Core 1 keeps operating privately.
	h.store(1, blk+16, 8, 999)
	// Core 0 rejoins and reads its own byte back through the merged LLC copy.
	if v := h.load(0, blk+8, 8); v != 12 {
		t.Fatalf("evicted bytes lost: %d, want 12", v)
	}
	h.settle()
	// Core 1's private value must still be intact after its episode ends.
	got := h.load(3, blk+16, 8)
	h.settle()
	if got != 999 {
		t.Fatalf("other core's bytes clobbered: %d, want 999", got)
	}
}

func TestExternalSocketTermination(t *testing.T) {
	h := newHarness(t, FSLite, nil)
	pingPong(h, 12)
	h.settle()
	if h.dirState(blk) != DirPrv {
		t.Skip("line not privatized")
	}
	if !h.dirs[0].ExternalAccess(blk) {
		t.Fatal("external access not accepted for a PRV block")
	}
	h.settle()
	if h.dirState(blk) == DirPrv {
		t.Fatal("external access did not terminate the episode")
	}
	if h.st.Get(stats.CtrFSTermExternal) != 1 {
		t.Fatal("external termination not recorded")
	}
	// Data survives the forced merge.
	if v := h.load(2, blk+8, 8); v != 12 {
		t.Fatalf("value after external termination = %d", v)
	}
}

func TestPrivatizedEpisodeSurvivesQuiescence(t *testing.T) {
	// All PRV copies evicted: the episode continues (the paper terminates
	// only on the four §V-C conditions), and a rejoin gets Data_PRV.
	h := newHarness(t, FSLite, func(p *Params, _ *core.Config) {
		p.L1Entries = 4
		p.L1Ways = 2
	})
	pingPong(h, 12)
	h.settle()
	if h.dirState(blk) != DirPrv {
		t.Skip("line not privatized")
	}
	for c := 0; c < 2; c++ {
		for i := 1; i <= 4; i++ {
			h.load(c, blk+memsys.Addr(i*0x1000), 8)
		}
	}
	h.settle()
	if h.dirState(blk) != DirPrv {
		t.Fatal("episode should survive all private copies being evicted")
	}
	if v := h.load(0, blk+8, 8); v != 12 {
		t.Fatalf("rejoin read %d, want 12", v)
	}
	if h.l1s[0].StateOf(blk) != L1Prv {
		t.Fatal("rejoin should re-enter PRV")
	}
}

func TestUpgradeTriggeredPrivatization(t *testing.T) {
	// Fig. 12's happy path: the privatization trigger is an Upgrade from a
	// sharer; the grant is UPG_Ack_PRV and the upgrader keeps its copy.
	h := newHarness(t, FSLite, nil)
	// Build up counters with read-shared copies and upgrades.
	for i := 0; i < 10; i++ {
		h.load(0, blk+8, 8)
		h.load(1, blk+16, 8)
		h.store(0, blk+8, 8, uint64(i))
		h.store(1, blk+16, 8, uint64(i+50))
	}
	h.settle()
	if h.st.Get(stats.CtrFSPrivatized) == 0 {
		t.Skip("pattern did not trigger privatization")
	}
	if h.dirState(blk) != DirPrv {
		t.Skip("line no longer privatized")
	}
	if v := h.load(0, blk+8, 8); v != 9 {
		t.Fatalf("upgrader's value = %d", v)
	}
}

func TestTrueSharingNeverPrivatizesAtProtocolLevel(t *testing.T) {
	h := newHarness(t, FSLite, nil)
	for i := 0; i < 30; i++ {
		h.store(0, blk+8, 8, uint64(i))
		h.store(1, blk+8, 8, uint64(i+1)) // same bytes: true sharing
	}
	h.settle()
	if h.st.Get(stats.CtrFSPrivatized) != 0 {
		t.Fatal("truly shared line was privatized")
	}
	if v := h.load(2, blk+8, 8); v != 30 {
		t.Fatalf("final value = %d, want 30", v)
	}
}

func TestCoarseGrainFalseSharingWithinGrain(t *testing.T) {
	// With 4-byte grains, two cores writing different bytes of the SAME
	// grain look truly shared: FSLite must refuse to privatize (a
	// conservative but correct outcome, §VIII-B).
	h := newHarness(t, FSLite, func(_ *Params, cc *core.Config) {
		cc.Granularity = 4
	})
	for i := 0; i < 30; i++ {
		h.store(0, blk+8, 1, uint64(i)) // byte 8
		h.store(1, blk+9, 1, uint64(i)) // byte 9: same 4-byte grain
	}
	h.settle()
	if h.st.Get(stats.CtrFSPrivatized) != 0 {
		t.Fatal("same-grain bytes privatized at coarse granularity")
	}
}
