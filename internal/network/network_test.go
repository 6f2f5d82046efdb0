package network

import (
	"testing"
	"testing/quick"

	"fscoherence/internal/stats"
)

func newNet(nodes int, latency uint64) (*Network, *stats.Set) {
	st := stats.NewSet()
	return New(nodes, latency, 64, st), st
}

func TestLatencyRespected(t *testing.T) {
	n, _ := newNet(2, 10)
	n.SetCycle(100)
	n.Send(&Msg{Op: OpGetS, Src: 0, Dst: 1, Addr: 0x40})
	for c := uint64(100); c < 110; c++ {
		n.SetCycle(c)
		if n.Recv(1) != nil {
			t.Fatalf("message delivered early at cycle %d", c)
		}
	}
	n.SetCycle(110)
	m := n.Recv(1)
	if m == nil || m.Op != OpGetS {
		t.Fatal("message not delivered at latency boundary")
	}
	if n.Recv(1) != nil {
		t.Fatal("duplicate delivery")
	}
}

func TestFIFOOrderPerDestination(t *testing.T) {
	n, _ := newNet(3, 5)
	n.SetCycle(0)
	n.Send(&Msg{Op: OpGetS, Src: 0, Dst: 2, Addr: 0x40})
	n.Send(&Msg{Op: OpGetX, Src: 1, Dst: 2, Addr: 0x80})
	n.SetCycle(2)
	n.Send(&Msg{Op: OpInv, Src: 0, Dst: 2, Addr: 0xc0})
	n.SetCycle(6)
	if m := n.Recv(2); m == nil || m.Op != OpGetS {
		t.Fatalf("first delivery wrong: %v", m)
	}
	if m := n.Recv(2); m == nil || m.Op != OpGetX {
		t.Fatalf("second delivery wrong: %v", m)
	}
	if n.Recv(2) != nil {
		t.Fatal("third message should not be ready yet")
	}
	n.SetCycle(7)
	if m := n.Recv(2); m == nil || m.Op != OpInv {
		t.Fatalf("third delivery wrong: %v", m)
	}
}

func TestPeekDoesNotConsume(t *testing.T) {
	n, _ := newNet(2, 1)
	n.SetCycle(0)
	n.Send(&Msg{Op: OpInv, Dst: 1})
	n.SetCycle(1)
	if n.Peek(1) == nil || n.Peek(1) == nil {
		t.Fatal("peek consumed the message")
	}
	if n.Recv(1) == nil {
		t.Fatal("recv after peek failed")
	}
}

// TestDeliverablePerDestination checks that Deliverable answers for one
// inbox: true exactly when Recv on that node would return a message, while
// NextArrival reports the earliest arrival at any node.
func TestDeliverablePerDestination(t *testing.T) {
	n, _ := newNet(3, 4)
	n.SetCycle(0)
	n.Send(&Msg{Op: OpInv, Src: 0, Dst: 1})
	n.SetCycle(2)
	n.Send(&Msg{Op: OpInv, Src: 0, Dst: 2})
	for c := uint64(2); c <= 7; c++ {
		n.SetCycle(c)
		for dst := NodeID(0); dst < 3; dst++ {
			if got, want := n.Deliverable(dst), n.Peek(dst) != nil; got != want {
				t.Fatalf("cycle %d node %d: Deliverable=%v, Peek says %v", c, dst, got, want)
			}
		}
	}
	n.SetCycle(4)
	if n.NextArrival() > 4 || !n.Deliverable(1) || n.Deliverable(2) || n.Deliverable(0) {
		t.Fatal("at cycle 4 only node 1's message is deliverable")
	}
	n.Recv(1)
	if n.Deliverable(1) {
		t.Fatal("drained inbox still reports a deliverable message")
	}
}

func TestControlOvertakesData(t *testing.T) {
	// A 72-byte data message sent first is overtaken by an 8-byte control
	// message sent one cycle later: this models separate virtual networks and
	// enables the paper's §V-E protocol races.
	n, _ := newNet(2, 10)
	n.SetCycle(0)
	n.Send(&Msg{Op: OpDataPrv, Dst: 1, Data: make([]byte, 64)}) // ready at 14
	n.SetCycle(1)
	n.Send(&Msg{Op: OpInvPrv, Dst: 1}) // ready at 11
	n.SetCycle(11)
	if m := n.Recv(1); m == nil || m.Op != OpInvPrv {
		t.Fatalf("control should arrive first, got %v", m)
	}
	n.SetCycle(14)
	if m := n.Recv(1); m == nil || m.Op != OpDataPrv {
		t.Fatalf("data should arrive second, got %v", m)
	}
}

func TestSendAfterDelaysDelivery(t *testing.T) {
	n, _ := newNet(2, 5)
	n.SetCycle(0)
	n.SendAfter(&Msg{Op: OpInv, Dst: 1}, 3)
	n.SetCycle(7)
	if n.Recv(1) != nil {
		t.Fatal("delivered before source-side delay elapsed")
	}
	n.SetCycle(8)
	if n.Recv(1) == nil {
		t.Fatal("not delivered after latency+extra")
	}
}

func TestPendingCounts(t *testing.T) {
	n, _ := newNet(3, 4)
	n.SetCycle(0)
	n.Send(&Msg{Op: OpInv, Dst: 1})
	n.Send(&Msg{Op: OpInv, Dst: 2})
	n.Send(&Msg{Op: OpInv, Dst: 2})
	if n.Pending() != 3 || n.PendingFor(2) != 2 || n.PendingFor(1) != 1 || n.PendingFor(0) != 0 {
		t.Fatalf("pending=%d for2=%d", n.Pending(), n.PendingFor(2))
	}
}

func TestTrafficAccounting(t *testing.T) {
	n, st := newNet(2, 1)
	n.SetCycle(0)
	n.Send(&Msg{Op: OpGetS, Dst: 1})                         // request: 8B
	n.Send(&Msg{Op: OpData, Dst: 1, Data: make([]byte, 64)}) // data: 72B
	n.Send(&Msg{Op: OpRepMD, Dst: 1})                        // metadata: 24B
	n.Send(&Msg{Op: OpMDPhantom, Dst: 1})                    // metadata hdr-only: 8B
	n.Send(&Msg{Op: OpInv, Dst: 1})                          // control: 8B
	if got := st.Get(stats.CtrNetMessages); got != 5 {
		t.Fatalf("messages = %d", got)
	}
	if got := st.Get(stats.CtrNetBytes); got != 8+72+24+8+8 {
		t.Fatalf("bytes = %d", got)
	}
	if st.Get("net.msg.request") != 1 || st.Get("net.msg.data") != 1 ||
		st.Get("net.msg.metadata") != 2 || st.Get("net.msg.control") != 1 {
		t.Fatalf("class breakdown wrong: %v", st.Snapshot())
	}
	if st.Get("net.op.GetS") != 1 {
		t.Fatal("per-op counter missing")
	}
}

func TestBadDestinationPanics(t *testing.T) {
	n, _ := newNet(2, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("send to invalid node should panic")
		}
	}()
	n.Send(&Msg{Op: OpGetS, Dst: 5})
}

func TestClassOfCoversAllOps(t *testing.T) {
	for op := Op(0); op < opCount; op++ {
		c := ClassOf(op)
		if c < 0 || c >= classCount {
			t.Fatalf("op %v has invalid class", op)
		}
		if op.String() == "" {
			t.Fatalf("op %d has no name", op)
		}
		if SizeOf(op, 64) < HeaderBytes {
			t.Fatalf("op %v has size < header", op)
		}
	}
	// Spot-check the paper's message classes.
	if ClassOf(OpGetCHK) != ClassRequest || ClassOf(OpGetXCHK) != ClassRequest {
		t.Fatal("CHK requests must be request class")
	}
	if ClassOf(OpPrvWB) != ClassData || ClassOf(OpDataPrv) != ClassData {
		t.Fatal("privatized data must be data class")
	}
	if ClassOf(OpRepMD) != ClassMetadata {
		t.Fatal("REP_MD must be metadata class")
	}
}

// Property: delivery order for one destination equals send order, regardless
// of the send cycles (non-decreasing) chosen.
func TestDeliveryOrderProperty(t *testing.T) {
	f := func(gaps []uint8) bool {
		if len(gaps) == 0 || len(gaps) > 50 {
			return true
		}
		n, _ := newNet(2, 7)
		cycle := uint64(0)
		for i, g := range gaps {
			cycle += uint64(g % 4)
			n.SetCycle(cycle)
			n.Send(&Msg{Op: OpInv, Dst: 1, AckCount: i})
		}
		n.SetCycle(cycle + 7)
		for i := range gaps {
			m := n.Recv(1)
			if m == nil || m.AckCount != i {
				return false
			}
		}
		return n.Recv(1) == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPerClassFIFONeverReorders(t *testing.T) {
	// Two same-class messages from one source must arrive in send order even
	// when the later one would otherwise be faster (the virtual-channel
	// FIFO clamp).
	n, _ := newNet(2, 10)
	n.SetCycle(0)
	n.Send(&Msg{Op: OpWB, Src: 0, Dst: 1, Data: make([]byte, 64)}) // data, slow
	n.SetCycle(1)
	n.Send(&Msg{Op: OpDataToDir, Src: 0, Dst: 1, Data: make([]byte, 64)}) // data, later
	n.SetCycle(14)
	if m := n.Recv(1); m == nil || m.Op != OpWB {
		t.Fatalf("first data message not first: %v", m)
	}
	n.SetCycle(15)
	if m := n.Recv(1); m == nil || m.Op != OpDataToDir {
		t.Fatal("second data message missing")
	}
}

func TestPerClassFIFOClampProperty(t *testing.T) {
	// Property: for any interleaving of sends on one (src,dst,class)
	// channel, receive order equals send order.
	f := func(gaps []uint8) bool {
		if len(gaps) == 0 || len(gaps) > 40 {
			return true
		}
		n, _ := newNet(2, 6)
		cycle := uint64(0)
		for i, g := range gaps {
			cycle += uint64(g % 3)
			n.SetCycle(cycle)
			op := OpWB // all data class, same src/dst
			if i%2 == 0 {
				op = OpPrvWB
			}
			n.Send(&Msg{Op: op, Src: 0, Dst: 1, Data: make([]byte, 64), AckCount: i})
		}
		n.SetCycle(cycle + 100)
		for i := range gaps {
			m := n.Recv(1)
			if m == nil || m.AckCount != i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
