package network

import (
	"fmt"
	"testing"
	"testing/quick"

	"fscoherence/internal/memsys"
)

// TestMeshHopCounts pins dimension-ordered XY distances on a 4x4 tiled mesh:
// core i and slice i share router i, routers number row-major.
func TestMeshHopCounts(t *testing.T) {
	n, _ := newNet(32, 12)
	n.SetTopology(TopoMesh, 4, 16)
	cases := []struct {
		src, dst NodeID
		hops     int
	}{
		{0, 16, 1}, // core 0 -> slice 0: co-located, router-local link
		{0, 1, 1},  // (0,0) -> (1,0)
		{0, 3, 3},  // across the top row
		{0, 12, 3}, // down the left column
		{0, 15, 6}, // corner to corner: 3 east + 3 south
		{5, 10, 2}, // (1,1) -> (2,2)
		{3, 12, 6}, // opposite corners
		{0, 31, 6}, // core 0 -> slice 15: same router as core 15
		{15, 0, 6}, // reverse of corner-to-corner
	}
	for _, c := range cases {
		if got := n.HopCount(c.src, c.dst); got != c.hops {
			t.Errorf("HopCount(%d,%d) = %d, want %d", c.src, c.dst, got, c.hops)
		}
	}
}

// TestRingHopCounts pins shortest-way routing on an 8-router ring.
func TestRingHopCounts(t *testing.T) {
	n, _ := newNet(16, 12)
	n.SetTopology(TopoRing, 4, 8)
	cases := []struct {
		src, dst NodeID
		hops     int
	}{
		{0, 8, 1}, // co-located core/slice
		{0, 1, 1},
		{0, 4, 4}, // antipodal: either way is 4
		{0, 7, 1}, // counter-clockwise shortcut
		{1, 6, 3}, // counter-clockwise
		{6, 1, 3}, // clockwise
	}
	for _, c := range cases {
		if got := n.HopCount(c.src, c.dst); got != c.hops {
			t.Errorf("HopCount(%d,%d) = %d, want %d", c.src, c.dst, got, c.hops)
		}
	}
}

// TestPerHopLatencyAccumulation checks a control message's delivery cycle is
// exactly hops x hopLatency on an uncontended mesh — not the flat fabric's
// fixed latency — and that hop statistics accumulate.
func TestPerHopLatencyAccumulation(t *testing.T) {
	n, st := newNet(32, 12)
	const hop = 5
	n.SetTopology(TopoMesh, hop, 16)
	n.SetCycle(100)
	n.Send(&Msg{Op: OpInv, Src: 0, Dst: 15, Addr: 0x40}) // 6 hops
	want := uint64(100 + 6*hop)                          // control: 1 flit, no serialization tail
	for c := uint64(100); c < want; c++ {
		n.SetCycle(c)
		if n.Recv(15) != nil {
			t.Fatalf("message delivered early at cycle %d (want %d)", c, want)
		}
	}
	n.SetCycle(want)
	if n.Recv(15) == nil {
		t.Fatalf("message not delivered at cycle %d", want)
	}
	if got := st.Snapshot()["net.hops"]; got != 6 {
		t.Errorf("net.hops = %d, want 6", got)
	}
}

// TestLinkContentionQueuing sends two data messages across the same first
// link in the same cycle: the second must wait for the first's flits to clear
// the link, and the wait must be visible in net.link_wait.
func TestLinkContentionQueuing(t *testing.T) {
	n, st := newNet(32, 12)
	n.SetTopology(TopoMesh, 4, 16)
	n.SetCycle(0)
	// Data messages: 8+64 bytes -> serialization 4 -> 5 flits each.
	n.Send(&Msg{Op: OpData, Src: 0, Dst: 3, Addr: 0x40})
	n.Send(&Msg{Op: OpData, Src: 0, Dst: 3, Addr: 0x80})
	first, second := recvAt(n, 3), recvAt(n, 3)
	// First: 3 hops x 4 + 4 tail flits = cycle 16. Second: waits 5 cycles at
	// every link behind the first's reservation.
	if first != 16 {
		t.Errorf("first data message arrived at %d, want 16", first)
	}
	if second != first+5 {
		t.Errorf("second data message arrived at %d, want %d (5-flit link wait)", second, first+5)
	}
	if st.Snapshot()["net.link_wait"] == 0 {
		t.Error("net.link_wait not accumulated under contention")
	}
}

// recvAt advances the network cycle until dst receives a message and returns
// that cycle.
func recvAt(n *Network, dst NodeID) uint64 {
	for c := uint64(0); c < 100000; c++ {
		n.SetCycle(c)
		if n.Recv(dst) != nil {
			return c
		}
	}
	panic("no delivery within bound")
}

// TestTopologyFIFOPreserved is the FIFO property test: on any topology, for
// any interleaving of sends, messages on the same (src, dst, class) virtual
// channel are delivered in send order — the PROTOCOL.md contract that the
// coherence protocol's races rely on.
func TestTopologyFIFOPreserved(t *testing.T) {
	for _, kind := range []TopoKind{TopoFlat, TopoRing, TopoMesh} {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			prop := func(seed int64) bool { return fifoHolds(kind, seed) }
			if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
				t.Error(err)
			}
		})
	}
}

// memsysAddr tags a message with a unique block address so deliveries can be
// matched back to their send order.
func memsysAddr(tag uint64) memsys.Addr { return memsys.Addr(tag * 64) }

// fifoHolds drives a random burst of sends over an 8-core/8-slice fabric and
// checks per-channel delivery order against send order.
func fifoHolds(kind TopoKind, seed int64) bool {
	n, _ := newNet(16, 12)
	if kind != TopoFlat {
		n.SetTopology(kind, 3, 8)
	}
	rng := seed
	next := func(mod int64) int {
		rng = rng*6364136223846793005 + 1442695040888963407
		v := (rng >> 33) % mod
		if v < 0 {
			v += mod
		}
		return int(v)
	}
	ops := []Op{OpGetS, OpInv, OpData, OpRepMD}
	type key struct {
		src, dst NodeID
		class    Class
	}
	sent := map[key][]uint64{}
	var tag uint64
	for c := uint64(0); c < 40; c++ {
		n.SetCycle(c)
		for i := 0; i < next(4); i++ {
			src := NodeID(next(16))
			dst := NodeID(next(16))
			op := ops[next(int64(len(ops)))]
			tag++
			n.Send(&Msg{Op: op, Src: src, Dst: dst, Addr: memsysAddr(tag)})
			k := key{src, dst, ClassOf(op)}
			sent[k] = append(sent[k], tag)
		}
	}
	got := map[key][]uint64{}
	for c := uint64(0); c < 4000; c++ {
		n.SetCycle(c)
		for d := NodeID(0); d < 16; d++ {
			for {
				m := n.Recv(d)
				if m == nil {
					break
				}
				k := key{m.Src, m.Dst, ClassOf(m.Op)}
				got[k] = append(got[k], uint64(m.Addr)/64)
			}
		}
	}
	for k, want := range sent {
		g := got[k]
		if fmt.Sprint(g) != fmt.Sprint(want) {
			return false
		}
	}
	return true
}
