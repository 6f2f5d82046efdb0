package network

import (
	"math/rand"
	"slices"
	"testing"
)

// chanKey identifies one ordered virtual channel of the reference below.
type chanKey struct {
	src, dst NodeID
	class    Class
}

// refMsg is one message queued in the reference: its send sequence number
// and the cycle it becomes deliverable.
type refMsg struct {
	seq, readyAt uint64
}

// refNet is the delivery order the network had when its per-channel FIFO
// clamp was a table rather than a scan of the destination inbox. A twin
// Network computes each message's unclamped delivery cycle (same topology,
// faults and send order, hence the same link reservations and jitter), a
// lastReady map keyed by channel raises it to the channel's previous
// delivery cycle, and each destination queue stays sorted by delivery
// cycle, stable in send order.
type refNet struct {
	twin      *Network
	lastReady map[chanKey]uint64
	inboxes   [][]refMsg
	clamped   int // sends the map raised
}

func (r *refNet) send(m *Msg, extra uint64) {
	readyAt := r.twin.arrival(m, extra, SizeOf(m.Op, r.twin.bs))
	key := chanKey{src: m.Src, dst: m.Dst, class: ClassOf(m.Op)}
	if prev := r.lastReady[key]; readyAt < prev {
		readyAt = prev
		r.clamped++
	}
	r.lastReady[key] = readyAt
	q := r.inboxes[m.Dst]
	i := len(q)
	for i > 0 && q[i-1].readyAt > readyAt {
		i--
	}
	r.inboxes[m.Dst] = slices.Insert(q, i, refMsg{seq: m.Seq, readyAt: readyAt})
}

// recv pops dst's next message deliverable at now, as Network.Recv does.
func (r *refNet) recv(dst NodeID, now uint64) (seq uint64, ok bool) {
	q := r.inboxes[dst]
	if len(q) == 0 || q[0].readyAt > now {
		return 0, false
	}
	r.inboxes[dst] = q[1:]
	return q[0].seq, true
}

// TestInboxClampMatchesMapReference drives seeded sends over the flat, ring
// and mesh fabrics, without faults, with jitter and with bursts, and checks
// that every message is delivered on the same cycle and in the same order
// as under the lastReady map the inbox clamp replaced. Half the traffic goes
// to one hot slice whose receiver takes one message per cycle (a
// MaxMsgsPerCycle of 1), so messages stay queued past their delivery cycle
// while later ones on their channel are sent.
func TestInboxClampMatchesMapReference(t *testing.T) {
	const cores, slicesN = 8, 8
	const nodes = cores + slicesN
	const sendCycles = 3000
	ops := []Op{OpGetS, OpGetX, OpInv, OpInvAck, OpFwdGetX, OpData, OpDataExcl, OpWB, OpRepMD}
	plans := []struct {
		name string
		plan *FaultPlan
	}{
		{"none", nil},
		{"jitter", &FaultPlan{Seed: 3, MaxJitter: 40}},
		{"bursts", &FaultPlan{Seed: 5, MaxJitter: 8, BurstPeriod: 50, BurstLen: 20}},
	}
	for _, topo := range []TopoKind{TopoFlat, TopoRing, TopoMesh} {
		for pi, p := range plans {
			t.Run(topo.String()+"/"+p.name, func(t *testing.T) {
				build := func() *Network {
					n, _ := newNet(nodes, 6)
					if topo != TopoFlat {
						n.SetTopology(topo, 2, cores)
					}
					n.SetFaults(p.plan)
					return n
				}
				n := build()
				ref := &refNet{twin: build(), lastReady: map[chanKey]uint64{}, inboxes: make([][]refMsg, nodes)}
				rng := rand.New(rand.NewSource(int64(10*int(topo) + pi + 1)))
				var sent, late int
				for cycle := uint64(0); cycle < sendCycles || n.Pending() > 0; cycle++ {
					n.SetCycle(cycle)
					ref.twin.SetCycle(cycle)
					for k := rng.Intn(6); cycle < sendCycles && k > 0; k-- {
						m := n.NewMsg()
						m.Op = ops[rng.Intn(len(ops))]
						m.Src = NodeID(rng.Intn(nodes))
						m.Dst = NodeID(rng.Intn(nodes))
						if rng.Intn(2) == 0 {
							m.Dst = cores // the hot slice
						}
						extra := uint64(rng.Intn(4))
						n.SendAfter(m, extra)
						ref.send(m, extra)
						sent++
					}
					for d := NodeID(0); d < nodes; d++ {
						m := n.Recv(d)
						want, ok := ref.recv(d, cycle)
						if (m != nil) != ok || (ok && m.Seq != want) {
							var got uint64
							if m != nil {
								got = m.Seq
							}
							t.Fatalf("cycle %d node %d: delivered seq %d (%v), reference delivers seq %d (%v)", cycle, d, got, m != nil, want, ok)
						}
						n.Release(m)
						if n.Deliverable(d) {
							late++
						}
					}
				}
				for d, q := range ref.inboxes {
					if len(q) != 0 {
						t.Fatalf("node %d: the reference still queues %d messages the network delivered", d, len(q))
					}
				}
				t.Logf("%d messages, %d raised by the clamp, %d receiver-cycles left a ready message queued", sent, ref.clamped, late)
				// A routed fabric without faults keeps each channel in order
				// by itself: one path, its links reserved in send order.
				if ref.clamped == 0 && (topo == TopoFlat || p.plan != nil) {
					t.Fatal("the FIFO clamp never raised a delivery cycle: the test no longer exercises it")
				}
				if late == 0 {
					t.Fatal("no ready message waited for the receiver: the MaxMsgsPerCycle cap never bit")
				}
			})
		}
	}
}
