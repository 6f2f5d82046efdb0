package network

import (
	"fmt"

	"fscoherence/internal/obs"
	"fscoherence/internal/stats"
	"fscoherence/internal/wakeq"
)

// NoArrival is the NextArrival sentinel: no message is queued anywhere.
const NoArrival = wakeq.None

// inflight pairs a queued message with the cycle it becomes deliverable.
// src and class copy the message's channel so the FIFO clamp's scan does
// not follow msg pointers.
type inflight struct {
	msg     *Msg
	readyAt uint64
	src     NodeID
	class   Class
}

// inbox is a growable ring buffer of inflight messages ordered by (readyAt,
// insertion order). Unlike the earlier slice-with-reslice implementation,
// popping the front clears the slot, so a drained inbox retains no message
// references in its backing array.
type inbox struct {
	buf  []inflight // power-of-two capacity ring
	head int
	n    int
}

func (b *inbox) grow() {
	c := len(b.buf) * 2
	if c == 0 {
		c = 16
	}
	nb := make([]inflight, c)
	for i := 0; i < b.n; i++ {
		nb[i] = b.buf[(b.head+i)&(len(b.buf)-1)]
	}
	b.buf = nb
	b.head = 0
}

// clamp returns the delivery cycle a message sent now on channel (src,
// this inbox, class) must take to keep per-channel FIFO: readyAt, raised to
// the delivery cycle of the latest queued message on the same channel when
// that one is later. Only queued messages can clamp: a predecessor that
// already left the inbox was ready at or before the current cycle, which no
// new delivery cycle precedes. The ring is sorted by readyAt, so the scan
// walks back from the tail over the messages due after readyAt — the ones
// push shifts past anyway — and the first same-channel one it meets is the
// channel's latest.
func (b *inbox) clamp(src NodeID, class Class, readyAt uint64) uint64 {
	mask := len(b.buf) - 1
	for i := b.head + b.n - 1; i >= b.head; i-- {
		inf := &b.buf[i&mask]
		if inf.readyAt <= readyAt {
			break
		}
		if inf.src == src && inf.class == class {
			return inf.readyAt
		}
	}
	return readyAt
}

// push inserts inf keeping the ring sorted by readyAt, stable for equal
// readyAt (the new message goes after existing ones). Messages almost always
// arrive in readyAt order, so the backwards shift is O(1) amortized.
func (b *inbox) push(inf inflight) {
	if b.n == len(b.buf) {
		b.grow()
	}
	mask := len(b.buf) - 1
	i := b.head + b.n // absolute slot for the new element
	for i > b.head && b.buf[(i-1)&mask].readyAt > inf.readyAt {
		b.buf[i&mask] = b.buf[(i-1)&mask]
		i--
	}
	b.buf[i&mask] = inf
	b.n++
}

// front returns the earliest-ready element without removing it.
func (b *inbox) front() *inflight {
	return &b.buf[b.head&(len(b.buf)-1)]
}

// pop removes and returns the earliest-ready message, clearing the slot so
// the ring holds no stale reference.
func (b *inbox) pop() *Msg {
	slot := &b.buf[b.head&(len(b.buf)-1)]
	m := slot.msg
	slot.msg = nil
	b.head++
	b.n--
	if b.n == 0 {
		b.head = 0
	}
	return m
}

// The per-class and per-opcode traffic counters ("net.msg.<class>",
// "net.bytes.<class>", "net.op.<op>"), registered as counter slots so Send
// bumps them by index, without hashing their names.
var (
	msgClassID  [classCount]stats.ID
	byteClassID [classCount]stats.ID
	opID        [opCount]stats.ID
)

func init() {
	for c := Class(0); c < classCount; c++ {
		msgClassID[c] = stats.Register("net.msg." + c.String())
		byteClassID[c] = stats.Register("net.bytes." + c.String())
	}
	for op := Op(0); op < opCount; op++ {
		opID[op] = stats.Register("net.op." + op.String())
	}
}

// Waker is told of every message's destination and delivery cycle as the
// message is sent (SetWaker); the skip engine's wake-up queue lowers the
// destination's key through it.
type Waker interface {
	Wake(dst NodeID, at uint64)
}

// Network is a deterministic fixed-latency interconnect. Each destination has
// an inbox ordered by delivery cycle; a message sent at cycle T nominally
// becomes deliverable at T+Latency (+serialization, +injected jitter). The
// only ordering the protocol may rely on — and the only one the network
// guarantees, with or without fault injection — is per-(src,dst,class) FIFO;
// see PROTOCOL.md §"Network ordering contract".
type Network struct {
	Latency uint64 // cycles per traversal
	nodes   int
	inboxes []inbox // per destination, ordered by readyAt
	seq     uint64
	now     uint64
	stats   *stats.Set
	bs      int // block size for byte accounting

	// tracer, when non-nil, receives a KindNetSend / KindNetRecv event for
	// every message entering / leaving the interconnect. cores is the
	// node-ID split point for mapping NodeID -> core / LLC-slice tracks.
	tracer *obs.Tracer
	cores  int

	inflightNow int // messages currently queued (Pending, peak counter)

	// fronts keys each inbox by its front's delivery cycle, so NextArrival
	// is the tree's root; a send that becomes an inbox's front lowers its
	// key, and a Recv moves it to the next message.
	fronts wakeq.Tree

	// waker, when non-nil, hears every send (SetWaker).
	waker Waker

	free []*Msg // Msg freelist (NewMsg / Release)

	// topo, when non-nil, routes messages over a ring or mesh NoC with
	// per-hop latency and per-link contention instead of the flat
	// fixed-latency fabric (see topology.go).
	topo *topology

	// faults, when non-nil, perturbs delivery latency deterministically
	// (fuzzing; see faults.go). sabotage, when non-nil, mistreats one
	// selected message to validate the fuzzing oracles.
	faults   *FaultPlan
	sabotage *Sabotage
}

// New builds a network with the given number of nodes, per-traversal latency
// in cycles, and block size (for wire-size accounting).
func New(nodes int, latency uint64, blockSize int, st *stats.Set) *Network {
	return &Network{
		Latency: latency,
		nodes:   nodes,
		inboxes: make([]inbox, nodes),
		fronts:  wakeq.New(nodes),
		stats:   st,
		bs:      blockSize,
	}
}

// NewMsg returns a zeroed message from the freelist (or a fresh allocation).
// Callers populate it and hand it to Send; the receiver's dispatch loop
// recycles it via Release once no handler retains it.
func (n *Network) NewMsg() *Msg {
	if k := len(n.free); k > 0 {
		m := n.free[k-1]
		n.free[k-1] = nil
		n.free = n.free[:k-1]
		m.pooled = false
		return m
	}
	return new(Msg)
}

// Release returns a delivered message to the freelist. It is a no-op for nil
// or retained messages, so dispatch loops can call it unconditionally after
// handling. Payload slices are not recycled — handlers may alias Msg.Data
// into cache lines; only the struct is reused.
func (n *Network) Release(m *Msg) {
	if m == nil || m.retained {
		return
	}
	if m.pooled {
		panic("network: double release of a pooled message")
	}
	*m = Msg{}
	m.pooled = true
	n.free = append(n.free, m)
}

// SetTracer attaches the unified event tracer. cores is the number of core
// nodes: NodeIDs below it trace onto core tracks, the rest onto LLC-slice
// tracks. A nil tracer disables network tracing (the default).
func (n *Network) SetTracer(t *obs.Tracer, cores int) {
	n.tracer = t
	n.cores = cores
}

// nodeTrack maps a NodeID to (core, slice) track coordinates for an event.
func (n *Network) nodeTrack(id NodeID) (core, slice int16) {
	if int(id) < n.cores {
		return int16(id), -1
	}
	return -1, int16(int(id) - n.cores)
}

// SetWaker installs the hook told of every send.
func (n *Network) SetWaker(w Waker) { n.waker = w }

// SetCycle advances the network's notion of the current cycle. The simulation
// engine calls this once per cycle before any component runs.
func (n *Network) SetCycle(c uint64) { n.now = c }

// Nodes returns the number of endpoints.
func (n *Network) Nodes() int { return n.nodes }

// Send enqueues m for delivery after the base latency plus a serialization
// penalty proportional to the wire size (one extra cycle per 16 bytes beyond
// the header). Large data messages therefore travel slower than small control
// messages and can be overtaken by them, which models separate virtual
// networks and makes the protocol races of the paper's §V-E reachable.
func (n *Network) Send(m *Msg) {
	n.SendAfter(m, 0)
}

// SendAfter behaves like Send with an additional source-side delay of extra
// cycles (used to model cache tag/data array access latency at the sender).
func (n *Network) SendAfter(m *Msg, extra uint64) {
	if int(m.Dst) < 0 || int(m.Dst) >= n.nodes {
		panic(fmt.Sprintf("network: bad destination %d (%v)", m.Dst, m))
	}
	n.seq++
	m.Seq = n.seq
	class := ClassOf(m.Op)
	size := SizeOf(m.Op, n.bs)
	readyAt := n.arrival(m, extra, size)
	if n.sabotage != nil {
		var drop bool
		if readyAt, drop = n.applySabotage(m, readyAt); drop {
			n.stats.Inc("net.sabotage.dropped")
			n.Release(m)
			return
		}
	}
	// Per-(src,dst,class) FIFO: a later message on the same virtual channel
	// never arrives before an earlier one, even though large data messages
	// serialize more slowly. Cross-class overtaking (control passing data)
	// remains possible, as on a real NoC with separate virtual networks. The
	// clamp runs after any injected perturbation, so a jittered message can
	// never overtake an earlier one on its channel — injection stays
	// protocol-legal. It reads the destination's inbox, which is sound only
	// because no delivery cycle precedes the current one.
	if readyAt < n.now {
		panic(fmt.Sprintf("network: %v ready at cycle %d, before the current cycle %d", m, readyAt, n.now))
	}
	q := &n.inboxes[m.Dst]
	readyAt = q.clamp(m.Src, class, readyAt)
	q.push(inflight{msg: m, readyAt: readyAt, src: m.Src, class: class})
	n.fronts.Lower(int(m.Dst), readyAt)
	if n.waker != nil {
		n.waker.Wake(m.Dst, readyAt)
	}

	n.stats.IncID(stats.IDNetMessages)
	n.stats.AddID(stats.IDNetBytes, uint64(size))
	n.stats.IncID(msgClassID[class])
	n.stats.AddID(byteClassID[class], uint64(size))
	n.stats.IncID(opID[m.Op])
	n.inflightNow++
	n.stats.MaxID(stats.IDNetInflightPeak, uint64(n.inflightNow))
	if t := n.tracer; t != nil {
		core, slice := n.nodeTrack(m.Src)
		t.Emit(obs.Event{
			Cycle: n.now, Kind: obs.KindNetSend, Core: core, Slice: slice,
			Addr: m.Addr, Name: m.Op.String(), Arg: m.Seq,
			Arg2: obs.PackSrcDst(int(m.Src), int(m.Dst)),
		})
	}
}

// arrival returns the cycle m, sent now after extra cycles of source-side
// delay, becomes deliverable before the per-channel FIFO clamp: the flat
// fabric's latency or the routed one (which reserves the route's links),
// then any injected perturbation. size is m's wire size.
func (n *Network) arrival(m *Msg, extra uint64, size int) uint64 {
	serialization := uint64((size - HeaderBytes) / 16)
	var readyAt uint64
	if t := n.topo; t != nil {
		var hops int
		var wait uint64
		readyAt, hops, wait = t.routeLatency(m.Src, m.Dst, n.now+extra, serialization+1)
		n.stats.AddID(stats.IDNetHops, uint64(hops))
		n.stats.AddID(stats.IDNetLinkWait, wait)
	} else {
		readyAt = n.now + n.Latency + extra + serialization
	}
	if n.faults.Enabled() {
		readyAt = n.faults.perturb(readyAt, m.Seq)
	}
	return readyAt
}

// Recv pops the next deliverable message for node dst at the current cycle,
// or returns nil if none is ready. Messages are delivered strictly in send
// order per destination.
func (n *Network) Recv(dst NodeID) *Msg {
	q := &n.inboxes[dst]
	if q.n == 0 || q.front().readyAt > n.now {
		return nil
	}
	m := q.pop()
	n.fronts.Set(int(dst), n.NextArrivalFor(dst))
	n.inflightNow--
	if t := n.tracer; t != nil {
		core, slice := n.nodeTrack(dst)
		t.Emit(obs.Event{
			Cycle: n.now, Kind: obs.KindNetRecv, Core: core, Slice: slice,
			Addr: m.Addr, Name: m.Op.String(), Arg: m.Seq,
			Arg2: obs.PackSrcDst(int(m.Src), int(m.Dst)),
		})
	}
	return m
}

// Peek returns the next deliverable message for dst without removing it, or
// nil if none is ready this cycle.
func (n *Network) Peek(dst NodeID) *Msg {
	if !n.Deliverable(dst) {
		return nil
	}
	return n.inboxes[dst].front().msg
}

// Deliverable reports whether dst has a message Recv would return at the
// current cycle: its inbox is nonempty and the front is ready.
func (n *Network) Deliverable(dst NodeID) bool {
	q := &n.inboxes[dst]
	return q.n > 0 && q.front().readyAt <= n.now
}

// NextArrivalFor returns the cycle at which dst's next queued message becomes
// deliverable — the front of its inbox, which is ordered by delivery cycle —
// or NoArrival when the inbox is empty.
func (n *Network) NextArrivalFor(dst NodeID) uint64 {
	q := &n.inboxes[dst]
	if q.n == 0 {
		return NoArrival
	}
	return q.front().readyAt
}

// Pending returns the total number of in-flight messages (delivered or not).
// It is the maintained count, O(1); TestPendingMatchesScan pins it to the
// per-inbox scan it replaced.
func (n *Network) Pending() int { return n.inflightNow }

// PendingFor returns the number of queued messages for one destination.
func (n *Network) PendingFor(dst NodeID) int { return n.inboxes[dst].n }

// NextArrival returns the earliest cycle at which any queued message becomes
// deliverable, or NoArrival when nothing is in flight. A value at or before
// the current cycle means messages are already deliverable (e.g. left over
// from a MaxMsgsPerCycle-capped tick). The skip engine's run-ahead bound
// reads it (sim's Horizon).
func (n *Network) NextArrival() uint64 { return n.fronts.Min() }
