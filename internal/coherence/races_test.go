package coherence_test

import (
	"testing"

	. "fscoherence/internal/coherence"
	"fscoherence/internal/core"
	"fscoherence/internal/memsys"
	"fscoherence/internal/network"
	"fscoherence/internal/stats"
)

// puppet drives a single L1 controller with hand-crafted directory messages,
// making the §V-D phantom scenario and the §V-E races (Figs. 11 and 12)
// deterministic regardless of network ordering.
type puppet struct {
	t     *testing.T
	p     Params
	net   *network.Network
	l1    *L1
	st    *stats.Set
	cycle uint64
	dir   network.NodeID
	peer  network.NodeID
}

func newPuppet(t *testing.T, mode Protocol) *puppet {
	p := DefaultParams()
	p.Cores = 2
	p.Slices = 1
	p.L1Entries = 4
	p.L1Ways = 2
	st := stats.NewSet()
	net := network.New(p.Nodes(), p.NetLatency, p.BlockSize, st)
	var pol L1Policy
	if mode != Baseline {
		cc := core.DefaultConfig(p.Cores, p.BlockSize, mode)
		pol = core.NewPAM(cc, 0, st)
	}
	return &puppet{
		t: t, p: p, net: net, st: st,
		l1:   NewL1(0, p, mode, net, pol, st, nil),
		dir:  p.SliceNode(0),
		peer: p.L1Node(1),
	}
}

func (pp *puppet) step(n int) {
	for i := 0; i < n; i++ {
		pp.cycle++
		pp.net.SetCycle(pp.cycle)
		pp.l1.Tick(pp.cycle)
	}
}

// expect drains messages for dst until one with the given opcode arrives.
func (pp *puppet) expect(dst network.NodeID, op network.Op) *network.Msg {
	pp.t.Helper()
	for i := 0; i < 10000; i++ {
		if m := pp.net.Recv(dst); m != nil {
			if m.Op == op {
				return m
			}
			continue // ignore unrelated messages
		}
		pp.step(1)
	}
	pp.t.Fatalf("message %v for node %d never arrived", op, dst)
	return nil
}

// inject sends a message from the directory to the L1.
func (pp *puppet) inject(m *network.Msg) {
	m.Src = pp.dir
	m.Dst = pp.p.L1Node(0)
	pp.net.Send(m)
	pp.step(int(pp.p.NetLatency) + 4)
}

func (pp *puppet) submitStore(a memsys.Addr, v uint64) *bool {
	done := new(bool)
	acc := &Access{Kind: AccessStore, Addr: a, Size: 8,
		StoreData: []byte{byte(v), 0, 0, 0, 0, 0, 0, 0},
		Done:      func([]byte) { *done = true }}
	if pp.l1.Submit(acc) == SubmitRetry {
		pp.t.Fatal("submit rejected")
	}
	return done
}

func (pp *puppet) submitLoad(a memsys.Addr) *bool {
	done := new(bool)
	acc := &Access{Kind: AccessLoad, Addr: a, Size: 8,
		Done: func([]byte) { *done = true }}
	if pp.l1.Submit(acc) == SubmitRetry {
		pp.t.Fatal("submit rejected")
	}
	return done
}

func blockData() []byte { return make([]byte, 64) }

func TestRacePhantomMetadataDeterministic(t *testing.T) {
	// §V-D: core 0 holds B in M; it evicts B (writeback in flight, PAM entry
	// gone) and then receives a late Fwd_GetX with REQ_MD: it must serve the
	// data from the writeback buffer and send a dataless phantom message.
	pp := newPuppet(t, FSDetect)
	const a = memsys.Addr(0x10000)

	// Acquire M.
	done := pp.submitStore(a, 7)
	gx := pp.expect(pp.dir, network.OpGetX)
	pp.inject(&network.Msg{Op: network.OpDataExcl, Addr: gx.Addr, Data: blockData()})
	pp.step(50)
	if !*done {
		t.Fatal("store never completed")
	}

	// Evict via two same-set fills (the set holds 2 ways).
	for i := 1; i <= 2; i++ {
		d := pp.submitLoad(a + memsys.Addr(i*0x80))
		gs := pp.expect(pp.dir, network.OpGetS)
		pp.inject(&network.Msg{Op: network.OpDataExcl, Addr: gs.Addr, Data: blockData()})
		pp.step(50)
		if !*d {
			t.Fatal("fill load never completed")
		}
	}
	// The dirty writeback must be in flight (unacked).
	wb := pp.expect(pp.dir, network.OpWB)
	if wb.Addr != a || !wb.Dirty {
		t.Fatalf("writeback wrong: %v", wb)
	}

	// Late intervention with REQ_MD.
	pp.inject(&network.Msg{Op: network.OpFwdGetX, Addr: a, Requestor: pp.peer, ReqMD: true})
	data := pp.expect(pp.peer, network.OpDataExcl)
	if data.Data[0] != 7 {
		t.Fatalf("forwarded data lost the store: %d", data.Data[0])
	}
	pp.expect(pp.dir, network.OpXferOwnerAck)
	pp.expect(pp.dir, network.OpMDPhantom)
	if pp.st.Get(stats.CtrFSPhantomMsgs) != 1 {
		t.Fatal("phantom counter wrong")
	}
}

func TestRaceFig11InvPrvBeatsDataPrv(t *testing.T) {
	// §V-E Fig. 11: core 0's GetX was granted with Data_PRV, but a
	// termination's Inv_PRV arrives first. The core answers with a dataless
	// Ctrl_WB and reissues the request when the stale grant lands.
	pp := newPuppet(t, FSLite)
	const a = memsys.Addr(0x20000)

	done := pp.submitStore(a, 9)
	pp.expect(pp.dir, network.OpGetX)

	// Termination overtakes the grant.
	pp.inject(&network.Msg{Op: network.OpInvPrv, Addr: a})
	pp.expect(pp.dir, network.OpCtrlWB)
	if *done {
		t.Fatal("store completed from a revoked grant")
	}

	// The stale Data_PRV arrives: discarded, GetX reissued.
	pp.inject(&network.Msg{Op: network.OpDataPrv, Addr: a, Data: blockData()})
	pp.expect(pp.dir, network.OpGetX)
	if *done {
		t.Fatal("store completed before the reissued grant")
	}

	// Serve the reissue normally.
	pp.inject(&network.Msg{Op: network.OpDataExcl, Addr: a, Data: blockData()})
	pp.step(50)
	if !*done {
		t.Fatal("store never completed after the reissue")
	}
	if pp.l1.StateOf(a) != L1Modified {
		t.Fatalf("final state = %v", pp.l1.StateOf(a))
	}
}

func TestRaceFig12UpgradeVsTermination(t *testing.T) {
	// §V-E Fig. 12: core 0's Upgrade triggered privatization (TR_PRV seen,
	// S copy turned PRV) but the episode terminates before UPG_Ack_PRV
	// arrives: the core writes its copy back, and the late grant is
	// discarded and reissued as a GetX.
	pp := newPuppet(t, FSLite)
	const a = memsys.Addr(0x30000)

	// Acquire an S copy. The grant carries REQ_MD (as a 3-hop intervention
	// response would), so the SEND_MD bit is set and TR_PRV ships REP_MD.
	done := pp.submitLoad(a)
	pp.expect(pp.dir, network.OpGetS)
	shared := blockData()
	shared[0] = 5
	pp.inject(&network.Msg{Op: network.OpData, Addr: a, Data: shared, ReqMD: true})
	pp.step(50)
	if !*done {
		t.Fatal("load never completed")
	}
	if pp.l1.StateOf(a) != L1Shared {
		t.Fatalf("state = %v, want S", pp.l1.StateOf(a))
	}

	// Upgrade in flight...
	wdone := pp.submitStore(a, 6)
	pp.expect(pp.dir, network.OpUpgrade)

	// ...privatization starts: TR_PRV makes the copy PRV and ships metadata.
	pp.inject(&network.Msg{Op: network.OpTRPrv, Addr: a, Requestor: pp.p.L1Node(0)})
	md := pp.expect(pp.dir, network.OpRepMD)
	if !md.HasCopy {
		t.Fatal("upgrader must report that it kept a copy")
	}
	if pp.l1.StateOf(a) != L1Prv {
		t.Fatalf("state after TR_PRV = %v, want PRV", pp.l1.StateOf(a))
	}

	// Termination beats the grant: the PRV copy is written back.
	pp.inject(&network.Msg{Op: network.OpInvPrv, Addr: a})
	prvwb := pp.expect(pp.dir, network.OpPrvWB)
	if prvwb.Data[0] != 5 {
		t.Fatalf("written-back copy corrupted: %d", prvwb.Data[0])
	}
	pp.inject(&network.Msg{Op: network.OpWBAck, Addr: a})

	// The stale UPG_Ack_PRV arrives: reissue as GetX.
	pp.inject(&network.Msg{Op: network.OpUpgAckPrv, Addr: a})
	pp.expect(pp.dir, network.OpGetX)
	pp.inject(&network.Msg{Op: network.OpDataExcl, Addr: a, Data: shared})
	pp.step(50)
	if !*wdone {
		t.Fatal("store never completed after the reissue")
	}
	if pp.l1.StateOf(a) != L1Modified {
		t.Fatalf("final state = %v", pp.l1.StateOf(a))
	}
}

func TestRaceUpgradeNackAfterInv(t *testing.T) {
	// Baseline upgrade race: an Inv lands while the upgrade is pending; the
	// directory then Nacks, and the store retries as a full GetX.
	pp := newPuppet(t, Baseline)
	const a = memsys.Addr(0x40000)

	done := pp.submitLoad(a)
	pp.expect(pp.dir, network.OpGetS)
	pp.inject(&network.Msg{Op: network.OpData, Addr: a, Data: blockData()})
	pp.step(50)
	if !*done {
		t.Fatal("load never completed")
	}

	wdone := pp.submitStore(a, 3)
	pp.expect(pp.dir, network.OpUpgrade)
	// Another core's write invalidates our S copy first.
	pp.inject(&network.Msg{Op: network.OpInv, Addr: a, Requestor: pp.peer})
	pp.expect(pp.peer, network.OpInvAck)
	// Nack arrives: reissue as GetX.
	pp.inject(&network.Msg{Op: network.OpUpgradeNack, Addr: a})
	pp.expect(pp.dir, network.OpGetX)
	pp.inject(&network.Msg{Op: network.OpDataExcl, Addr: a, Data: blockData()})
	pp.step(50)
	if !*wdone {
		t.Fatal("store never completed")
	}
}

func TestRaceDeferredRecallDuringGrant(t *testing.T) {
	// An owner recall (ToOwner Inv) arrives while our DataExcl grant is in
	// flight: the recall must be deferred and answered with a writeback
	// after the store commits, so no data is lost.
	pp := newPuppet(t, Baseline)
	const a = memsys.Addr(0x50000)

	done := pp.submitStore(a, 8)
	pp.expect(pp.dir, network.OpGetX)
	// Recall overtakes the grant.
	pp.inject(&network.Msg{Op: network.OpInv, Addr: a, Requestor: pp.dir, ToOwner: true})
	// Grant arrives; the store commits, then the deferred recall answers.
	data := blockData()
	data[8] = 0xaa
	pp.inject(&network.Msg{Op: network.OpDataExcl, Addr: a, Data: data})
	wb := pp.expect(pp.dir, network.OpWB)
	if !*done {
		t.Fatal("store never committed")
	}
	if wb.Data[0] != 8 || wb.Data[8] != 0xaa {
		t.Fatalf("recalled data wrong: %v", wb.Data[:9])
	}
	if pp.l1.StateOf(a) != L1Invalid {
		t.Fatal("line must be gone after the recall")
	}
}

func TestRaceRecallDuringGrantedUpgrade(t *testing.T) {
	// An owner recall (ToOwner Inv) reaches our S line after the directory
	// acked our upgrade but before a peer's InvAck arrived: the directory
	// already counts us as the owner, so the recall must wait for the
	// upgrade to complete and be answered with the modified line.
	pp := newPuppet(t, Baseline)
	const a = memsys.Addr(0x58000)

	done := pp.submitLoad(a)
	pp.expect(pp.dir, network.OpGetS)
	pp.inject(&network.Msg{Op: network.OpData, Addr: a, Data: blockData()})
	pp.step(50)
	if !*done {
		t.Fatal("load never completed")
	}

	wdone := pp.submitStore(a, 9)
	pp.expect(pp.dir, network.OpUpgrade)
	pp.inject(&network.Msg{Op: network.OpUpgradeAck, Addr: a, AckCount: 1})
	// The recall overtakes the peer's InvAck.
	pp.inject(&network.Msg{Op: network.OpInv, Addr: a, Requestor: pp.dir, ToOwner: true})
	if pp.l1.StateOf(a) != L1Shared {
		t.Fatalf("state after the early recall = %v, want S", pp.l1.StateOf(a))
	}
	pp.net.Send(&network.Msg{Op: network.OpInvAck, Addr: a, Src: pp.peer, Dst: pp.p.L1Node(0)})
	wb := pp.expect(pp.dir, network.OpWB)
	if !*wdone {
		t.Fatal("store never committed")
	}
	if wb.Data[0] != 9 || !wb.Dirty {
		t.Fatalf("recalled line wrong: data[0]=%d dirty=%v", wb.Data[0], wb.Dirty)
	}
	if pp.l1.StateOf(a) != L1Invalid {
		t.Fatal("line must be gone after the recall")
	}
}

func TestRaceInvalidationDuringPendingFill(t *testing.T) {
	// An Inv overtakes a (slow, data-class) S grant: the fill is used once
	// for the pending load and not cached.
	pp := newPuppet(t, Baseline)
	const a = memsys.Addr(0x60000)

	var got byte
	hit := false
	acc := &Access{Kind: AccessLoad, Addr: a, Size: 1, Done: func(v []byte) {
		got = v[0]
		hit = true
	}}
	if pp.l1.Submit(acc) == SubmitRetry {
		t.Fatal("submit rejected")
	}
	pp.expect(pp.dir, network.OpGetS)
	pp.inject(&network.Msg{Op: network.OpInv, Addr: a, Requestor: pp.peer})
	pp.expect(pp.peer, network.OpInvAck)
	data := blockData()
	data[0] = 0x5c
	pp.inject(&network.Msg{Op: network.OpData, Addr: a, Data: data})
	pp.step(50)
	if !hit || got != 0x5c {
		t.Fatalf("use-once fill failed: hit=%v got=%#x", hit, got)
	}
	if pp.l1.StateOf(a) != L1Invalid {
		t.Fatal("use-once fill must not install the line")
	}
}
