package network

import (
	"math/rand"
	"testing"
)

// scanPending recomputes the in-flight message count the way the pre-counter
// implementation did: by walking every inbox.
func scanPending(n *Network) int {
	total := 0
	for i := 0; i < n.Nodes(); i++ {
		total += n.PendingFor(NodeID(i))
	}
	return total
}

// TestPendingMatchesScan drives a random send/receive load and checks after
// every operation that the maintained Pending() counter equals the per-inbox
// scan it replaced.
func TestPendingMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n, _ := newNet(8, 3)
	ops := []Op{OpGetS, OpGetX, OpInv, OpData, OpRepMD, OpWB, OpInvAck}
	for cycle := uint64(0); cycle < 2000; cycle++ {
		n.SetCycle(cycle)
		for s := 0; s < rng.Intn(4); s++ {
			m := n.NewMsg()
			m.Op = ops[rng.Intn(len(ops))]
			m.Src = NodeID(rng.Intn(8))
			m.Dst = NodeID(rng.Intn(8))
			n.SendAfter(m, uint64(rng.Intn(5)))
			if got, want := n.Pending(), scanPending(n); got != want {
				t.Fatalf("cycle %d after send: Pending()=%d scan=%d", cycle, got, want)
			}
		}
		for d := 0; d < 8; d++ {
			for rng.Intn(2) == 0 {
				m := n.Recv(NodeID(d))
				if m == nil {
					break
				}
				n.Release(m)
				if got, want := n.Pending(), scanPending(n); got != want {
					t.Fatalf("cycle %d after recv: Pending()=%d scan=%d", cycle, got, want)
				}
			}
		}
	}
	// Drain and check the terminal state.
	n.SetCycle(5000)
	for d := 0; d < 8; d++ {
		for {
			m := n.Recv(NodeID(d))
			if m == nil {
				break
			}
			n.Release(m)
		}
	}
	if n.Pending() != 0 || scanPending(n) != 0 {
		t.Fatalf("drained network still pending: counter=%d scan=%d", n.Pending(), scanPending(n))
	}
}

// TestNextArrival checks the wake-up report against queued messages.
func TestNextArrival(t *testing.T) {
	n, _ := newNet(4, 10)
	if got := n.NextArrival(); got != NoArrival {
		t.Fatalf("empty network NextArrival = %d, want NoArrival", got)
	}
	n.SetCycle(100)
	n.Send(&Msg{Op: OpGetS, Src: 0, Dst: 1})        // ready at 110
	n.SendAfter(&Msg{Op: OpInv, Src: 0, Dst: 2}, 5) // ready at 115
	if got := n.NextArrival(); got != 110 {
		t.Fatalf("NextArrival = %d, want 110", got)
	}
	n.SetCycle(110)
	n.Release(n.Recv(1))
	if got := n.NextArrival(); got != 115 {
		t.Fatalf("NextArrival after first delivery = %d, want 115", got)
	}
	n.SetCycle(115)
	n.Release(n.Recv(2))
	if got := n.NextArrival(); got != NoArrival {
		t.Fatalf("drained NextArrival = %d, want NoArrival", got)
	}
}

// TestReleaseRespectsRetain checks the single-holder message lifecycle: a
// retained message survives Release, and releasing twice panics.
func TestReleaseRespectsRetain(t *testing.T) {
	n, _ := newNet(2, 1)
	m := n.NewMsg()
	m.Op = OpGetS
	m.Retain()
	n.Release(m) // no-op
	if m.Op != OpGetS {
		t.Fatal("retained message was recycled")
	}
	m.Unretain()
	n.Release(m)
	if m.Op != 0 {
		t.Fatal("released message not zeroed")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("double release did not panic")
		}
	}()
	n.Release(m)
}

// TestNewMsgReusesReleased pins the freelist round trip: a released message
// struct is handed back by the next NewMsg.
func TestNewMsgReusesReleased(t *testing.T) {
	n, _ := newNet(2, 1)
	m := n.NewMsg()
	n.Release(m)
	if got := n.NewMsg(); got != m {
		t.Fatal("freelist did not reuse the released message")
	}
}

// sendRecvCycle is one steady-state message round trip: allocate from the
// pool, send, deliver, release.
func sendRecvCycle(n *Network, cycle uint64) {
	n.SetCycle(cycle)
	m := n.NewMsg()
	m.Op = OpGetS
	m.Src = 0
	m.Dst = 1
	m.Addr = 0x40
	n.Send(m)
	n.SetCycle(cycle + n.Latency)
	got := n.Recv(1)
	if got == nil {
		panic("message not delivered")
	}
	n.Release(got)
}

// TestSendRecvDoesNotAllocate pins the zero-allocation contract of the
// steady-state hot path with tracing disabled: after warmup (which sizes the
// ring, the freelist and the channel-FIFO map), a full NewMsg/Send/Recv/
// Release round trip performs no heap allocation.
func TestSendRecvDoesNotAllocate(t *testing.T) {
	n, _ := newNet(2, 2)
	cycle := uint64(0)
	for i := 0; i < 100; i++ { // warmup: steady-state capacity everywhere
		sendRecvCycle(n, cycle)
		cycle += n.Latency + 1
	}
	avg := testing.AllocsPerRun(200, func() {
		sendRecvCycle(n, cycle)
		cycle += n.Latency + 1
	})
	if avg != 0 {
		t.Fatalf("Send/Recv allocated %.2f times per round trip, want 0", avg)
	}
}

// BenchmarkNetSendRecv measures the steady-state message round trip; run with
// -benchmem, allocs/op must stay 0 (make ci smoke-runs it).
func BenchmarkNetSendRecv(b *testing.B) {
	n, _ := newNet(2, 2)
	cycle := uint64(0)
	for i := 0; i < 100; i++ {
		sendRecvCycle(n, cycle)
		cycle += n.Latency + 1
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sendRecvCycle(n, cycle)
		cycle += n.Latency + 1
	}
}
