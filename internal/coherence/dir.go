package coherence

import (
	"fmt"
	"math/bits"

	"fscoherence/internal/forensics"
	"fscoherence/internal/memsys"
	"fscoherence/internal/network"
	"fscoherence/internal/obs"
	"fscoherence/internal/stats"
)

// coreSet is a bitset of core indices (up to memsys.MaxCores).
type coreSet = memsys.CoreSet

// dirTxnKind enumerates the directory's transient (busy) transactions.
type dirTxnKind int

const (
	txnFwd     dirTxnKind = iota // intervention forwarded to the owner
	txnMemFill                   // LLC miss waiting for memory
	txnPrvInit                   // privatization initiation (§V-A)
	txnPrvTerm                   // privatization termination (§V-C)
	txnEvict                     // LLC victim recall (inclusion)
)

// dirTxn is the state of one in-progress transaction on a directory entry.
type dirTxn struct {
	kind dirTxnKind

	// req is the request being served (nil for forced terminations and pure
	// evictions).
	req *network.Msg

	// expect is the set of cores whose response is awaited.
	expect coreSet

	// prvJoin collects TR_PRV responders that kept a copy (the PRV sharers).
	prvJoin coreSet

	// needOwnerData/dataSeen gate privatization commit on the M/E owner's
	// DataToDir (or racing WB) having refreshed the LLC copy.
	needOwnerData bool
	dataSeen      bool

	// wbRace marks that the old owner's writeback raced with an intervention
	// (the WBAck is deferred to transaction completion).
	wbRace   bool
	oldOwner int

	// mergeBuf accumulates the byte-merged block during termination.
	mergeBuf []byte

	// evictAfter drops the LLC line once the termination merge completes.
	evictAfter bool

	// refetch marks a memory fill that restores only the data of an
	// existing directory entry (non-inclusive mode), preserving its
	// coherence state.
	refetch bool

	// termReason labels the termination cause for statistics.
	termReason string

	// termInvals counts the Inv_PRV messages sent to collect private
	// copies (observability: invalidations per episode).
	termInvals int
}

// dirLine is the per-block payload of an LLC/directory entry.
// dirHot is the hot metadata of one directory entry: the fields every
// protocol event touches (state dispatch, sharer-set updates, ownership
// checks). Keeping them contiguous at the front of dirLine — apart from the
// cold pointers below — keeps the common lookup-and-dispatch path inside one
// cache line of host memory.
type dirHot struct {
	state   DirState
	owner   int     // valid when state == DirOwned
	dirty   bool    // LLC copy differs from memory
	hasData bool    // data array holds the block (always true when inclusive)
	sharers coreSet // S sharers, or PRV sharers when state == DirPrv

	// prvSince stamps entry into DirPrv (for episode-length observability).
	prvSince uint64
}

// dirLine is the per-entry payload of the LLC slice: the hot metadata
// (embedded, fields promoted) followed by the cold block data and the
// transient-transaction pointers that only miss paths touch.
type dirLine struct {
	dirHot
	data  []byte
	txn   *dirTxn
	pendq []*network.Msg
}

// memFill is a pending main-memory access.
type memFill struct {
	readyAt uint64
	addr    memsys.Addr
}

// Dir is one LLC slice with its embedded directory controller.
type Dir struct {
	slice  int
	node   network.NodeID
	params Params
	mode   Protocol
	net    *network.Network
	llc    *memsys.SetAssoc[dirLine]
	mem    *memsys.Memory
	policy DirPolicy
	stats  *stats.Set
	now    uint64

	memq   []memFill
	retryq []*network.Msg
	forced []memsys.Addr // privatized blocks needing forced termination

	// txnFree recycles transaction records: endTxn clears a finished one
	// and beginTxn draws from here, so a steady miss stream allocates none.
	txnFree []*dirTxn

	// dataDir tracks which blocks hold a data copy in the (separately
	// sized) LLC data array when the directory is sparse/non-inclusive.
	dataDir *memsys.SetAssoc[struct{}]

	// Observability attachments (nil when disabled; see SetObs and
	// SetForensics).
	trace          *obs.Tracer
	episodeHist    *obs.Histogram
	episodeInvHist *obs.Histogram
	forensics      *forensics.Recorder

	// peekForced, when the policy implements ForcedTerminationPeeker, reports
	// how many forced terminations the policy has queued without draining
	// them (NextEvent must see them: Tick drains the policy's queue, so work
	// can be pending with d.forced still empty). forcedOpaque marks a policy
	// that does not expose the count: NextEvent then conservatively reports
	// every next cycle as a potential wake-up.
	peekForced   func() int
	forcedOpaque bool
}

// ForcedTerminationPeeker is an optional DirPolicy extension used by the
// quiescence-skipping engine: it reports how many forced terminations the
// policy has queued for the next TakeForcedTerminations call, without
// draining them.
type ForcedTerminationPeeker interface {
	PendingForcedTerminations() int
}

// NewDir builds directory slice s. policy may be nil (baseline protocol).
func NewDir(slice int, p Params, mode Protocol, net *network.Network, mem *memsys.Memory, policy DirPolicy, st *stats.Set) *Dir {
	entries, ways := p.LLCEntriesSlice, p.LLCWays
	var dataDir *memsys.SetAssoc[struct{}]
	if p.NonInclusiveLLC {
		entries, ways = p.DirEntriesSlice, p.DirWays
		if entries == 0 {
			entries, ways = 2*p.LLCEntriesSlice, p.LLCWays
		}
		dataDir = memsys.NewSetAssoc[struct{}](fmt.Sprintf("llcdata%d", slice), p.LLCEntriesSlice, p.LLCWays, p.BlockSize)
	}
	d := &Dir{
		slice:   slice,
		node:    p.SliceNode(slice),
		params:  p,
		mode:    mode,
		net:     net,
		llc:     memsys.NewSetAssoc[dirLine](fmt.Sprintf("llc%d", slice), entries, ways, p.BlockSize),
		mem:     mem,
		policy:  policy,
		stats:   st,
		dataDir: dataDir,
	}
	if policy != nil {
		if pk, ok := policy.(ForcedTerminationPeeker); ok {
			d.peekForced = pk.PendingForcedTerminations
		} else {
			d.forcedOpaque = true
		}
	}
	return d
}

// NextEvent reports the slice's earliest self-driven wake-up: the next cycle
// while locally queued work exists (retried requests, forced terminations —
// including ones still queued inside the policy), else the earliest pending
// memory-fill completion, else NoEvent. Incoming messages are covered by the
// network's NextArrival report.
func (d *Dir) NextEvent(now uint64) uint64 {
	if len(d.retryq) > 0 || len(d.forced) > 0 {
		return now + 1
	}
	if d.forcedOpaque || (d.peekForced != nil && d.peekForced() > 0) {
		return now + 1
	}
	next := uint64(NoEvent)
	for _, f := range d.memq {
		if f.readyAt < next {
			next = f.readyAt
		}
	}
	if next <= now {
		return now + 1
	}
	return next
}

// Node returns the slice's network node, the inbox its Tick drains.
func (d *Dir) Node() network.NodeID { return d.node }

// StateOf returns the directory state of the block containing a.
func (d *Dir) StateOf(a memsys.Addr) (DirState, bool) {
	e := d.llc.Peek(a)
	if e == nil {
		return DirIdle, false
	}
	return e.Payload.state, true
}

// Busy reports whether the block has an in-progress transaction.
func (d *Dir) Busy(a memsys.Addr) bool {
	e := d.llc.Peek(a)
	return e != nil && e.Payload.txn != nil
}

// DebugString summarizes in-flight state (deadlock diagnosis).
func (d *Dir) DebugString() string {
	if d.Idle() {
		return ""
	}
	s := fmt.Sprintf("dir %d: memq=%d retryq=%d forced=%d", d.slice, len(d.memq), len(d.retryq), len(d.forced))
	d.llc.ForEach(func(e *memsys.Entry[dirLine]) {
		ln := &e.Payload
		if ln.txn == nil && len(ln.pendq) == 0 {
			return
		}
		s += fmt.Sprintf(" line{%v st=%v sh=%v", e.Tag, ln.state, ln.sharers)
		if ln.txn != nil {
			s += fmt.Sprintf(" txn{kind=%v expect=%v data=%v/%v pmmc?}", ln.txn.kind, ln.txn.expect, ln.txn.dataSeen, ln.txn.needOwnerData)
			if d.policy != nil {
				s += fmt.Sprintf(" pmmc=%d", d.policy.PendingMetadata(e.Tag))
			}
		}
		s += fmt.Sprintf(" pendq=%d}", len(ln.pendq))
	})
	return s
}

// Idle reports whether the slice has no in-flight work: no pending memory
// fills, retries, forced terminations, and no busy or queued lines.
func (d *Dir) Idle() bool {
	if len(d.memq) != 0 || len(d.retryq) != 0 || len(d.forced) != 0 {
		return false
	}
	idle := true
	d.llc.ForEach(func(e *memsys.Entry[dirLine]) {
		if e.Payload.txn != nil || len(e.Payload.pendq) != 0 {
			idle = false
		}
	})
	return idle
}

// ExternalAccess models an access forwarded from another socket (§V-C
// condition iv): the privatized episode of a must terminate before the
// inter-socket request can be served. It reports whether a termination was
// scheduled.
func (d *Dir) ExternalAccess(a memsys.Addr) bool {
	e := d.llc.Peek(a)
	if e == nil || e.Payload.state != DirPrv {
		return false
	}
	d.forced = append(d.forced, a.BlockAlign(d.params.BlockSize))
	d.stats.IncID(stats.IDFSTermExternal)
	return true
}

// send/sendAfter dispatch a message from this slice. The caller's Msg is
// copied into a pooled message before entering the network, so call sites can
// keep building stack-allocated composite literals while the heap traffic is
// absorbed by the network's freelist.
func (d *Dir) send(m *network.Msg) {
	pm := d.net.NewMsg()
	*pm = *m
	pm.Src = d.node
	d.noteInvalidation(pm)
	d.net.Send(pm)
}

func (d *Dir) sendAfter(m *network.Msg, extra uint64) {
	pm := d.net.NewMsg()
	*pm = *m
	pm.Src = d.node
	d.noteInvalidation(pm)
	d.net.SendAfter(pm, extra)
}

// noteInvalidation feeds the forensics recorder every message that costs a
// core its copy or exclusivity of a line — plain and PRV invalidations plus
// forwarded-exclusive interventions — attributing it to the target core.
// The before/after-privatization split of these counts is the recorder's
// repair-efficacy signal.
func (d *Dir) noteInvalidation(m *network.Msg) {
	f := d.forensics
	if f == nil {
		return
	}
	switch m.Op {
	case network.OpInv, network.OpInvPrv, network.OpFwdGetX:
		core := -1
		if int(m.Dst) < d.params.Cores {
			core = int(m.Dst)
		}
		f.OnInvalidation(m.Addr, core, d.now)
	}
}

// pinLine/unpinLine protect a block's directory entry (and its data slot in
// non-inclusive mode) from replacement during transactions and PRV episodes.
func (d *Dir) pinLine(a memsys.Addr) {
	d.llc.Pin(a)
	if d.dataDir != nil {
		d.dataDir.Pin(a)
	}
}

func (d *Dir) unpinLine(a memsys.Addr) {
	d.llc.Unpin(a)
	if d.dataDir != nil {
		e := d.llc.Peek(a)
		if e == nil || e.Payload.state != DirPrv {
			d.dataDir.Unpin(a)
		}
	}
}

// touchData records that the block's data is (now) resident in the LLC data
// array, possibly dropping another block's data to make room (non-inclusive
// mode only: the displaced block keeps its directory entry and sharers).
func (d *Dir) touchData(e *memsys.Entry[dirLine]) {
	e.Payload.hasData = true
	if d.dataDir == nil {
		return
	}
	if d.dataDir.Lookup(e.Tag) != nil {
		return
	}
	if d.dataDir.Victim(e.Tag) == nil {
		// Every data slot in the set is pinned (busy/PRV blocks); over-
		// provision rather than stall: data capacity is advisory here.
		return
	}
	_, victim, ok := d.dataDir.Insert(e.Tag)
	if !ok {
		return
	}
	d.stats.Inc("llc.data_drops")
	ve := d.llc.Peek(victim.Tag)
	if ve == nil {
		return
	}
	vl := &ve.Payload
	if vl.dirty {
		d.mem.WriteBlock(victim.Tag, vl.data)
		d.stats.IncID(stats.IDMemWrites)
		vl.dirty = false
	}
	vl.hasData = false
	vl.data = nil
}

// beginTxn makes t the line's transaction, in a record drawn from the
// slice's freelist.
func (d *Dir) beginTxn(line *dirLine, t dirTxn) *dirTxn {
	var p *dirTxn
	if k := len(d.txnFree); k > 0 {
		p = d.txnFree[k-1]
		d.txnFree = d.txnFree[:k-1]
	} else {
		p = new(dirTxn)
	}
	*p = t
	line.txn = p
	return p
}

// endTxn ends the line's transaction and recycles its record, cleared so it
// holds no message or buffer. Callers read what they still need from the
// record first.
func (d *Dir) endTxn(line *dirLine) {
	t := line.txn
	line.txn = nil
	*t = dirTxn{}
	d.txnFree = append(d.txnFree, t)
}

// ensureData guarantees the block's data is resident before a grant that
// needs it, refetching from memory in non-inclusive mode. It returns false
// (queueing m) when a refetch was started.
func (d *Dir) ensureData(e *memsys.Entry[dirLine], m *network.Msg) bool {
	line := &e.Payload
	if line.hasData {
		return true
	}
	d.beginTxn(line, dirTxn{kind: txnMemFill, refetch: true})
	m.Retain()
	line.pendq = append(line.pendq, m)
	d.stats.MaxID(stats.IDDirPendqPeak, uint64(len(line.pendq)))
	d.pinLine(e.Tag)
	d.stats.IncID(stats.IDMemReads)
	d.memq = append(d.memq, memFill{readyAt: d.now + d.params.MemLatency, addr: e.Tag})
	return false
}

func (d *Dir) ctrlLat() uint64 { return d.params.LLCTagCycles }
func (d *Dir) dataLat() uint64 { return d.params.LLCTagCycles + d.params.LLCDataCycles }

// Tick advances the slice one cycle: memory fills, forced terminations,
// retried requests, then incoming messages.
func (d *Dir) Tick(now uint64) {
	d.now = now

	// Main-memory fills that completed this cycle.
	keep := d.memq[:0]
	for _, f := range d.memq {
		if f.readyAt <= now {
			d.finishMemFill(f.addr)
		} else {
			keep = append(keep, f)
		}
	}
	d.memq = keep

	// Forced terminations (SAM-entry eviction, external-socket access).
	if d.policy != nil {
		d.forced = append(d.forced, d.policy.TakeForcedTerminations()...)
	}
	if len(d.forced) > 0 {
		rest := d.forced[:0]
		for _, a := range d.forced {
			if !d.tryForcedTermination(a) {
				rest = append(rest, a)
			}
		}
		d.forced = rest
	}

	// Retried requests (drained transaction queues).
	if len(d.retryq) > 0 {
		q := d.retryq
		d.retryq = nil
		for _, m := range q {
			d.redispatchRequest(m)
		}
	}

	for i := 0; i < d.params.MaxMsgsPerCycle; i++ {
		m := d.net.Recv(d.node)
		if m == nil {
			break
		}
		d.handle(m)
		d.net.Release(m)
	}
}

// redispatchRequest re-enters a held (retained) request into the request path
// and recycles it, unless a handler retained it again (pending queue, retry
// queue, or a new transaction).
func (d *Dir) redispatchRequest(m *network.Msg) {
	m.Unretain()
	d.handleRequest(m)
	d.net.Release(m)
}

func (d *Dir) tryForcedTermination(a memsys.Addr) bool {
	e := d.llc.Peek(a)
	if e == nil || e.Payload.state != DirPrv {
		return true // already gone; nothing to do
	}
	if e.Payload.txn != nil {
		return false // busy; retry next cycle
	}
	d.startPrvTerm(e, nil, false, "forced")
	return true
}

// requestorCore maps a request's originating node to its core index.
func requestorCore(m *network.Msg) int { return int(m.Requestor) }

// handleRequest serves a demand or CHK request, possibly queueing it.
func (d *Dir) handleRequest(m *network.Msg) {
	blk := m.Addr.BlockAlign(d.params.BlockSize)
	d.stats.IncID(stats.IDLLCAccesses)
	e := d.llc.Lookup(blk)
	if e == nil {
		d.stats.IncID(stats.IDLLCMisses)
		d.allocate(blk, m)
		return
	}
	line := &e.Payload
	if line.txn != nil {
		d.stats.IncID(stats.IDDirPendingQ)
		m.Retain()
		line.pendq = append(line.pendq, m)
		d.stats.MaxID(stats.IDDirPendqPeak, uint64(len(line.pendq)))
		return
	}
	d.stats.IncID(stats.IDLLCHits)
	d.serve(e, m)
}

// serve processes a request against a non-busy resident line.
func (d *Dir) serve(e *memsys.Entry[dirLine], m *network.Msg) {
	line := &e.Payload
	core := requestorCore(m)

	// CHK requests: byte-grain permission checks for privatized blocks. If
	// the episode already terminated, fall through as a demand request.
	if m.Op == network.OpGetCHK || m.Op == network.OpGetXCHK {
		if line.state == DirPrv {
			d.serveChk(e, m)
			return
		}
		if m.Op == network.OpGetXCHK {
			m.Op = network.OpGetX
		} else {
			m.Op = network.OpGetS
		}
	}

	if line.state == DirPrv {
		d.servePrvDemand(e, m)
		return
	}

	d.stats.IncID(stats.IDDirFetchReq)
	requestMD, privatize := false, false
	if d.policy != nil {
		if m.Counted {
			requestMD = d.policy.WantMetadata(e.Tag)
		} else {
			requestMD, privatize = d.policy.OnFetchRequest(e.Tag, core)
			m.Counted = true
		}
	}

	if privatize && d.mode == FSLite && !line.hasData && line.state == DirShared {
		// Non-inclusive mode: a shared block whose data was dropped cannot
		// privatize yet (the merge needs an LLC base copy, §VII); serve
		// normally — the grant path refetches the data, and a later request
		// will privatize.
		privatize = false
	}
	if privatize && d.mode == FSLite &&
		(line.state == DirShared || line.state == DirOwned) {
		d.startPrvInit(e, m)
		return
	}

	switch m.Op {
	case network.OpGetS:
		d.serveGetS(e, m, requestMD)
	case network.OpGetX:
		d.serveGetX(e, m, requestMD)
	case network.OpUpgrade:
		d.serveUpgrade(e, m, requestMD)
	default:
		panic(fmt.Sprintf("dir %d: serve %v", d.slice, m))
	}
}

func (d *Dir) serveGetS(e *memsys.Entry[dirLine], m *network.Msg, requestMD bool) {
	line := &e.Payload
	core := requestorCore(m)
	switch line.state {
	case DirIdle:
		// MESI: exclusive (E) grant when no other core caches the block.
		if !d.ensureData(e, m) {
			return
		}
		d.sendAfter(&network.Msg{Op: network.OpDataExcl, Dst: m.Requestor, Addr: e.Tag, Data: cloneBytes(line.data)}, d.dataLat())
		d.setState(e, DirOwned)
		line.owner = core
	case DirShared:
		if !d.ensureData(e, m) {
			return
		}
		d.sendAfter(&network.Msg{Op: network.OpData, Dst: m.Requestor, Addr: e.Tag, Data: cloneBytes(line.data)}, d.dataLat())
		line.sharers.Add(core)
	case DirOwned:
		if line.owner == core {
			panic(fmt.Sprintf("dir %d: GetS from current owner %d for %v", d.slice, core, e.Tag))
		}
		d.stats.IncID(stats.IDDirInterv)
		if d.policy != nil {
			d.policy.OnInvalidationsSent(e.Tag, 1)
			if requestMD {
				d.policy.OnMetadataRequested(e.Tag, 1)
			}
		}
		d.sendAfter(&network.Msg{Op: network.OpFwdGetS, Dst: d.params.L1Node(line.owner), Addr: e.Tag, Requestor: m.Requestor, ReqMD: requestMD}, d.ctrlLat())
		m.Retain()
		d.beginTxn(line, dirTxn{kind: txnFwd, req: m, oldOwner: line.owner})
		d.pinLine(e.Tag)
	default:
		panic("dir: GetS in bad state")
	}
}

func (d *Dir) serveGetX(e *memsys.Entry[dirLine], m *network.Msg, requestMD bool) {
	line := &e.Payload
	core := requestorCore(m)
	switch line.state {
	case DirIdle:
		if !d.ensureData(e, m) {
			return
		}
		d.sendAfter(&network.Msg{Op: network.OpDataExcl, Dst: m.Requestor, Addr: e.Tag, Data: cloneBytes(line.data)}, d.dataLat())
		d.setState(e, DirOwned)
		line.owner = core
	case DirShared:
		if !d.ensureData(e, m) {
			return
		}
		others := line.sharers
		others.Remove(core) // a stale sharer entry for the requestor itself
		n := others.Count()
		others.ForEach(func(c int) {
			d.stats.IncID(stats.IDDirInval)
			d.sendAfter(&network.Msg{Op: network.OpInv, Dst: d.params.L1Node(c), Addr: e.Tag, Requestor: m.Requestor, ReqMD: requestMD}, d.ctrlLat())
		})
		if d.policy != nil && n > 0 {
			d.policy.OnInvalidationsSent(e.Tag, n)
			if requestMD {
				d.policy.OnMetadataRequested(e.Tag, n)
			}
		}
		d.sendAfter(&network.Msg{Op: network.OpDataExcl, Dst: m.Requestor, Addr: e.Tag, Data: cloneBytes(line.data), AckCount: n}, d.dataLat())
		d.setState(e, DirOwned)
		line.owner = core
		line.sharers = coreSet{}
	case DirOwned:
		if line.owner == core {
			panic(fmt.Sprintf("dir %d: GetX from current owner %d for %v", d.slice, core, e.Tag))
		}
		d.stats.IncID(stats.IDDirInterv)
		if d.policy != nil {
			d.policy.OnInvalidationsSent(e.Tag, 1)
			if requestMD {
				d.policy.OnMetadataRequested(e.Tag, 1)
			}
		}
		d.sendAfter(&network.Msg{Op: network.OpFwdGetX, Dst: d.params.L1Node(line.owner), Addr: e.Tag, Requestor: m.Requestor, ReqMD: requestMD}, d.ctrlLat())
		m.Retain()
		d.beginTxn(line, dirTxn{kind: txnFwd, req: m, oldOwner: line.owner})
		d.pinLine(e.Tag)
	default:
		panic("dir: GetX in bad state")
	}
}

func (d *Dir) serveUpgrade(e *memsys.Entry[dirLine], m *network.Msg, requestMD bool) {
	line := &e.Payload
	core := requestorCore(m)
	if line.state != DirShared || !line.sharers.Has(core) {
		// The upgrader's S copy raced with another writer (or back-inval):
		// it must retry as a full GetX (§V-E fig. 12 note).
		d.sendAfter(&network.Msg{Op: network.OpUpgradeNack, Dst: m.Requestor, Addr: e.Tag}, d.ctrlLat())
		return
	}
	others := line.sharers
	others.Remove(core)
	n := others.Count()
	others.ForEach(func(c int) {
		d.stats.IncID(stats.IDDirInval)
		d.sendAfter(&network.Msg{Op: network.OpInv, Dst: d.params.L1Node(c), Addr: e.Tag, Requestor: m.Requestor, ReqMD: requestMD}, d.ctrlLat())
	})
	if d.policy != nil && n > 0 {
		d.policy.OnInvalidationsSent(e.Tag, n)
		if requestMD {
			d.policy.OnMetadataRequested(e.Tag, n)
		}
	}
	d.sendAfter(&network.Msg{Op: network.OpUpgradeAck, Dst: m.Requestor, Addr: e.Tag, AckCount: n}, d.ctrlLat())
	d.setState(e, DirOwned)
	line.owner = core
	line.sharers = coreSet{}
}

// ---------------------------------------------------------------------------
// FSLite: privatized-block service (§V-B)
// ---------------------------------------------------------------------------

func (d *Dir) serveChk(e *memsys.Entry[dirLine], m *network.Msg) {
	line := &e.Payload
	core := requestorCore(m)
	write := m.Op == network.OpGetXCHK
	if !line.sharers.Has(core) {
		// A stale CHK from a previous privatized episode (the block was
		// terminated and re-privatized while it was in flight): treat it as
		// a demand request joining the new episode (§V-C).
		if write {
			m.Op = network.OpGetX
		} else {
			m.Op = network.OpGetS
		}
		d.servePrvDemand(e, m)
		return
	}
	if d.policy.CheckBytes(e.Tag, core, m.TouchedOff, m.TouchedLen, write) == NoConflict {
		d.policy.RecordBytes(e.Tag, core, m.TouchedOff, m.TouchedLen, write)
		d.sendAfter(&network.Msg{Op: network.OpAckPrv, Dst: m.Requestor, Addr: e.Tag}, d.ctrlLat()+d.params.ChkCycles)
		return
	}
	// True-sharing conflict: terminate the episode, then serve the request
	// as a converted demand access (§V-C).
	d.policy.MarkTrueSharing(e.Tag)
	d.startPrvTerm(e, m, false, "conflict")
}

// servePrvDemand handles Get/GetX/Upgrade for a block in the PRV state: a new
// core joins the privatized episode if its bytes do not conflict.
func (d *Dir) servePrvDemand(e *memsys.Entry[dirLine], m *network.Msg) {
	line := &e.Payload
	core := requestorCore(m)
	write := m.Op == network.OpGetX || m.Op == network.OpUpgrade

	if m.Op == network.OpUpgrade && !line.sharers.Has(core) {
		d.sendAfter(&network.Msg{Op: network.OpUpgradeNack, Dst: m.Requestor, Addr: e.Tag}, d.ctrlLat())
		return
	}
	if m.Op != network.OpUpgrade && line.sharers.Has(core) {
		panic(fmt.Sprintf("dir %d: demand %v from existing PRV sharer %d", d.slice, m.Op, core))
	}

	if d.policy.CheckBytes(e.Tag, core, m.TouchedOff, m.TouchedLen, write) == NoConflict {
		d.policy.RecordBytes(e.Tag, core, m.TouchedOff, m.TouchedLen, write)
		if m.Op == network.OpUpgrade {
			d.sendAfter(&network.Msg{Op: network.OpUpgAckPrv, Dst: m.Requestor, Addr: e.Tag}, d.ctrlLat()+d.params.ChkCycles)
		} else {
			if !d.ensureData(e, m) {
				return
			}
			line.sharers.Add(core)
			d.sendAfter(&network.Msg{Op: network.OpDataPrv, Dst: m.Requestor, Addr: e.Tag, Data: cloneBytes(line.data)}, d.dataLat()+d.params.ChkCycles)
		}
		return
	}
	d.policy.MarkTrueSharing(e.Tag)
	d.startPrvTerm(e, m, false, "conflict")
}

// startPrvInit begins privatization of the block for request m (§V-A).
func (d *Dir) startPrvInit(e *memsys.Entry[dirLine], m *network.Msg) {
	line := &e.Payload
	var targets coreSet
	needOwnerData := false
	switch line.state {
	case DirShared:
		targets = line.sharers
	case DirOwned:
		targets.Add(line.owner)
		needOwnerData = true
	}
	m.Retain()
	d.beginTxn(line, dirTxn{kind: txnPrvInit, req: m, expect: targets, needOwnerData: needOwnerData})
	d.pinLine(e.Tag)
	d.policy.OnMetadataRequested(e.Tag, targets.Count())
	targets.ForEach(func(c int) {
		d.sendAfter(&network.Msg{Op: network.OpTRPrv, Dst: d.params.L1Node(c), Addr: e.Tag, Requestor: m.Requestor}, d.ctrlLat())
	})
	d.maybeFinishPrvInit(e)
}

// maybeFinishPrvInit commits or aborts privatization once every TR_PRV
// target has responded, all in-flight metadata has drained (PMMC == 0), and
// the owner's data (if any) has arrived.
func (d *Dir) maybeFinishPrvInit(e *memsys.Entry[dirLine]) {
	line := &e.Payload
	txn := line.txn
	if txn == nil || txn.kind != txnPrvInit {
		return
	}
	if !txn.expect.Empty() || d.policy.PendingMetadata(e.Tag) != 0 {
		return
	}
	if txn.needOwnerData && !txn.dataSeen {
		return
	}
	m := txn.req
	core := requestorCore(m)
	write := m.Op != network.OpGetS

	conflict := d.policy.TrueSharing(e.Tag)
	if !conflict && d.policy.CheckBytes(e.Tag, core, m.TouchedOff, m.TouchedLen, write) != NoConflict {
		d.policy.MarkTrueSharing(e.Tag)
		conflict = true
	}
	if conflict {
		// Abort (§V-A): the TR_PRV receivers already hold PRV copies and
		// must be rolled back through the termination sequence; the
		// triggering request is then served normally.
		d.stats.IncID(stats.IDFSPrivAborted)
		if txn.prvJoin.Empty() {
			d.endTxn(line)
			d.unpinLine(e.Tag)
			d.tracePrvAbort(e.Tag)
			d.setState(e, DirIdle)
			line.sharers = coreSet{}
			m.Counted = true
			d.retryq = append(d.retryq, m)
			d.drainPendq(line)
			return
		}
		d.tracePrvAbort(e.Tag)
		d.setState(e, DirPrv)
		line.prvSince = d.now
		line.sharers = txn.prvJoin
		d.endTxn(line)
		d.startPrvTerm(e, m, false, "abort")
		return
	}

	// Commit privatization.
	d.stats.IncID(stats.IDFSPrivatized)
	d.policy.OnPrivatize(e.Tag)
	d.setState(e, DirPrv)
	line.prvSince = d.now
	d.tracePrvBegin(e.Tag, core)
	line.sharers = txn.prvJoin
	d.endTxn(line)
	d.unpinLine(e.Tag)
	if d.dataDir != nil {
		// A privatized block's data slot must survive the episode (the
		// termination merge starts from it).
		d.dataDir.Pin(e.Tag)
	}
	switch {
	case m.Op == network.OpUpgrade && line.sharers.Has(core):
		// fig. 12: the upgrader already holds the block (now PRV).
		d.policy.RecordBytes(e.Tag, core, m.TouchedOff, m.TouchedLen, write)
		d.sendAfter(&network.Msg{Op: network.OpUpgAckPrv, Dst: m.Requestor, Addr: e.Tag}, d.ctrlLat())
	case m.Op == network.OpUpgrade:
		// A stale upgrade (the requestor's S copy was invalidated before
		// this request was served): it must retry as a full GetX, which
		// will join the fresh privatized episode as a demand request.
		d.sendAfter(&network.Msg{Op: network.OpUpgradeNack, Dst: m.Requestor, Addr: e.Tag}, d.ctrlLat())
	default:
		d.policy.RecordBytes(e.Tag, core, m.TouchedOff, m.TouchedLen, write)
		line.sharers.Add(core)
		d.sendAfter(&network.Msg{Op: network.OpDataPrv, Dst: m.Requestor, Addr: e.Tag, Data: cloneBytes(line.data)}, d.dataLat())
	}
	m.Unretain()
	d.net.Release(m)
	d.drainPendq(line)
}

// startPrvTerm begins termination of a privatized episode (§V-C). heldReq,
// if non-nil, is re-served once the merge completes; evictAfter additionally
// drops the LLC line (inclusion-driven termination).
func (d *Dir) startPrvTerm(e *memsys.Entry[dirLine], heldReq *network.Msg, evictAfter bool, reason string) {
	line := &e.Payload
	d.stats.IncID(stats.IDFSTerminations)
	switch reason {
	case "conflict", "abort":
		d.stats.IncID(stats.IDFSTermConflict)
	case "evict":
		d.stats.IncID(stats.IDFSTermEviction)
	case "forced":
		d.stats.IncID(stats.IDFSTermSAMEvict)
	}
	if heldReq != nil {
		heldReq.Retain()
	}
	d.beginTxn(line, dirTxn{
		kind:       txnPrvTerm,
		req:        heldReq,
		expect:     line.sharers,
		mergeBuf:   cloneBytes(line.data),
		evictAfter: evictAfter,
		termReason: reason,
		termInvals: line.sharers.Count(),
	})
	d.pinLine(e.Tag)
	line.sharers.ForEach(func(c int) {
		d.sendAfter(&network.Msg{Op: network.OpInvPrv, Dst: d.params.L1Node(c), Addr: e.Tag}, d.ctrlLat())
	})
	d.maybeFinishPrvTerm(e)
}

func (d *Dir) maybeFinishPrvTerm(e *memsys.Entry[dirLine]) {
	line := &e.Payload
	txn := line.txn
	if txn == nil || txn.kind != txnPrvTerm || !txn.expect.Empty() {
		return
	}
	line.data = txn.mergeBuf
	line.dirty = true
	d.touchData(e)
	d.policy.OnTerminate(e.Tag)
	// Episode length accrues here (every real termination passes through),
	// NOT in tracePrvTerminate: FinalizeObs synthesizes terminations for
	// episodes still open at run end only when observability is attached,
	// and counters must not depend on attachment.
	d.stats.AddID(stats.IDFSPrvCycles, d.now-line.prvSince)
	d.tracePrvTerminate(e, txn.termReason, txn.termInvals)
	d.setState(e, DirIdle)
	if d.dataDir != nil {
		d.dataDir.Unpin(e.Tag)
	}
	line.sharers = coreSet{}
	req, evictAfter := txn.req, txn.evictAfter
	d.endTxn(line)
	d.unpinLine(e.Tag)

	if req != nil && !evictAfter {
		m := req
		// A held CHK is re-served as a traditional demand request (§V-C).
		if m.Op == network.OpGetCHK {
			m.Op = network.OpGetS
		} else if m.Op == network.OpGetXCHK {
			m.Op = network.OpGetX
		}
		d.retryq = append(d.retryq, m)
	}
	d.drainPendq(line)

	if evictAfter {
		d.dropLine(e)
		if req != nil {
			// The termination was inclusion-driven: the held request is for
			// the block displacing this one; claim the freed way now.
			d.redispatchRequest(req)
		}
	}
}

// drainPendq moves queued requests to the retry queue (served next cycle).
func (d *Dir) drainPendq(line *dirLine) {
	if len(line.pendq) == 0 {
		return
	}
	d.retryq = append(d.retryq, line.pendq...)
	line.pendq = nil
}

// ---------------------------------------------------------------------------
// Responses
// ---------------------------------------------------------------------------

func (d *Dir) lineFor(m *network.Msg, what string) *memsys.Entry[dirLine] {
	e := d.llc.Peek(m.Addr)
	if e == nil {
		panic(fmt.Sprintf("dir %d: %s for absent block %v", d.slice, what, m.Addr))
	}
	return e
}

func (d *Dir) onWB(m *network.Msg) {
	e := d.lineFor(m, "WB")
	line := &e.Payload
	src := requestorCore(m)
	txn := line.txn
	if txn == nil {
		if line.state != DirOwned || line.owner != src {
			panic(fmt.Sprintf("dir %d: WB from %d but state %v owner %d", d.slice, src, line.state, line.owner))
		}
		if m.Dirty {
			line.data = cloneBytes(m.Data)
			line.dirty = true
			d.touchData(e)
		}
		d.setState(e, DirIdle)
		d.sendAfter(&network.Msg{Op: network.OpWBAck, Dst: m.Src, Addr: e.Tag}, d.ctrlLat())
		return
	}
	switch txn.kind {
	case txnFwd:
		if src != txn.oldOwner {
			panic("dir: WB race from non-owner")
		}
		if m.Dirty {
			line.data = cloneBytes(m.Data)
			line.dirty = true
			d.touchData(e)
		}
		txn.wbRace = true // WBAck deferred to transaction completion
	case txnEvict:
		// Recall response (or racing eviction writeback) from the owner.
		if m.Dirty {
			line.data = cloneBytes(m.Data)
			line.dirty = true
			d.touchData(e)
		}
		if txn.expect.Has(src) {
			txn.expect.Remove(src)
		}
		d.sendAfter(&network.Msg{Op: network.OpWBAck, Dst: m.Src, Addr: e.Tag}, d.ctrlLat())
		d.maybeFinishEvict(e)
	case txnPrvInit:
		// The owner evicted before TR_PRV arrived; its writeback carries the
		// data we were waiting for.
		if m.Dirty {
			line.data = cloneBytes(m.Data)
			line.dirty = true
			d.touchData(e)
		}
		txn.dataSeen = true
		d.sendAfter(&network.Msg{Op: network.OpWBAck, Dst: m.Src, Addr: e.Tag}, d.ctrlLat())
		d.maybeFinishPrvInit(e)
	case txnMemFill:
		panic("dir: WB during memory fill")
	case txnPrvTerm:
		panic("dir: plain WB during privatization termination")
	}
}

// mergePrvCopy folds one privatized copy (data, with episode base snapshot
// base) into dst: bytes whose last writer is the responder are copied (§V-C),
// and reduction words accumulate the responder's delta over its episode base
// (§VII). The masks are packed one-bit-per-byte words, so the copy walks only
// the set bits and the reduce pass tests eight bytes at a time.
func (d *Dir) mergePrvCopy(dst, data, base []byte, src int, blk memsys.Addr) {
	for mask := d.policy.MergeMask(blk, src); mask != 0; mask &= mask - 1 {
		i := bits.TrailingZeros64(mask)
		dst[i] = data[i]
	}
	red := d.policy.ReduceMask(blk, src)
	if red == 0 || len(base) != len(dst) {
		return
	}
	for w := 0; w+8 <= len(dst); w += 8 {
		if (red>>uint(w))&0xff == 0 {
			continue
		}
		delta := leWord(data[w:w+8]) - leWord(base[w:w+8])
		putLEWord(dst[w:w+8], leWord(dst[w:w+8])+delta)
	}
}

func leWord(b []byte) uint64 {
	var v uint64
	for i := 7; i >= 0; i-- {
		v = v<<8 | uint64(b[i])
	}
	return v
}

func putLEWord(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v)
		v >>= 8
	}
}

func (d *Dir) onPrvWB(m *network.Msg) {
	e := d.lineFor(m, "Prv_WB")
	line := &e.Payload
	src := requestorCore(m)
	txn := line.txn
	if txn != nil && txn.kind == txnPrvTerm {
		// Merge the bytes whose last writer is the responder (§V-C).
		d.mergePrvCopy(txn.mergeBuf, m.Data, m.Base, src, e.Tag)
		d.tracePrvMerge(e.Tag, src)
		txn.expect.Remove(src)
		d.sendAfter(&network.Msg{Op: network.OpWBAck, Dst: m.Src, Addr: e.Tag}, d.ctrlLat())
		d.maybeFinishPrvTerm(e)
		return
	}
	if txn != nil && txn.kind == txnPrvInit {
		// A TR_PRV receiver evicted its PRV copy before initiation finished.
		// Its PAM entry was cleared at TR_PRV, so it cannot have written;
		// merging by the (pre-reset) SAM last-writer info is value-safe.
		d.mergePrvCopy(line.data, m.Data, m.Base, src, e.Tag)
		d.tracePrvMerge(e.Tag, src)
		line.dirty = true
		txn.prvJoin.Remove(src)
		d.sendAfter(&network.Msg{Op: network.OpWBAck, Dst: m.Src, Addr: e.Tag}, d.ctrlLat())
		d.maybeFinishPrvInit(e)
		return
	}
	if line.state == DirPrv && txn == nil {
		// Eviction of a privatized copy (§V-D).
		d.mergePrvCopy(line.data, m.Data, m.Base, src, e.Tag)
		d.tracePrvMerge(e.Tag, src)
		line.dirty = true
		d.policy.OnPrvEviction(e.Tag, src)
		line.sharers.Remove(src)
		d.sendAfter(&network.Msg{Op: network.OpWBAck, Dst: m.Src, Addr: e.Tag}, d.ctrlLat())
		return
	}
	panic(fmt.Sprintf("dir %d: Prv_WB in state %v", d.slice, line.state))
}

func (d *Dir) onCtrlWB(m *network.Msg) {
	e := d.lineFor(m, "Ctrl_WB")
	line := &e.Payload
	txn := line.txn
	if txn == nil || txn.kind != txnPrvTerm {
		panic(fmt.Sprintf("dir %d: Ctrl_WB without termination", d.slice))
	}
	txn.expect.Remove(requestorCore(m))
	d.maybeFinishPrvTerm(e)
}

func (d *Dir) onInvAck(m *network.Msg) {
	e := d.llc.Peek(m.Addr)
	if e == nil {
		// The eviction already completed off a racing writeback; this ack is
		// the core's redundant response to the recall.
		d.stats.Inc("dir.stray_acks")
		return
	}
	line := &e.Payload
	txn := line.txn
	if txn == nil || txn.kind != txnEvict {
		// A stale ack (e.g. the core both wrote back and acked a recall).
		d.stats.Inc("dir.stray_acks")
		return
	}
	txn.expect.Remove(requestorCore(m))
	d.maybeFinishEvict(e)
}

func (d *Dir) onXferOwnerAck(m *network.Msg) {
	e := d.lineFor(m, "Xfer_Owner_ACK")
	line := &e.Payload
	txn := line.txn
	if txn == nil || txn.kind != txnFwd {
		panic(fmt.Sprintf("dir %d: stray Xfer_Owner_ACK", d.slice))
	}
	// Ownership moved to the requestor (GetX intervention complete).
	line.state = DirOwned
	line.owner = requestorCore(txn.req)
	line.sharers = coreSet{}
	d.finishFwd(e, txn)
}

func (d *Dir) onDataToDir(m *network.Msg) {
	e := d.lineFor(m, "DataToDir")
	line := &e.Payload
	txn := line.txn
	if txn == nil {
		panic(fmt.Sprintf("dir %d: stray DataToDir", d.slice))
	}
	switch txn.kind {
	case txnFwd:
		// GetS intervention complete: LLC refreshed; owner downgraded to S.
		line.data = cloneBytes(m.Data)
		line.dirty = true
		d.touchData(e)
		d.setState(e, DirShared)
		line.sharers = coreSet{}
		if !txn.wbRace {
			line.sharers.Add(txn.oldOwner)
		}
		line.sharers.Add(requestorCore(txn.req))
		d.finishFwd(e, txn)
	case txnPrvInit:
		line.data = cloneBytes(m.Data)
		line.dirty = true
		d.touchData(e)
		txn.dataSeen = true
		d.maybeFinishPrvInit(e)
	default:
		panic("dir: DataToDir in unexpected transaction")
	}
}

func (d *Dir) finishFwd(e *memsys.Entry[dirLine], txn *dirTxn) {
	line := &e.Payload
	if txn.wbRace {
		d.sendAfter(&network.Msg{Op: network.OpWBAck, Dst: d.params.L1Node(txn.oldOwner), Addr: e.Tag}, d.ctrlLat())
		// The old owner's copy is gone; if it was recorded as a sharer
		// (GetS path), remove it.
		line.sharers.Remove(txn.oldOwner)
	}
	req := txn.req
	d.endTxn(line)
	d.unpinLine(e.Tag)
	req.Unretain()
	d.net.Release(req)
	d.drainPendq(line)
}

func (d *Dir) onRepMD(m *network.Msg) {
	if d.policy == nil {
		panic("dir: REP_MD without a policy")
	}
	d.policy.OnRepMD(m.Addr, requestorCore(m), m.MDRead, m.MDWrite)
	d.notePrvInitResponse(m)
}

func (d *Dir) onMDPhantom(m *network.Msg) {
	if d.policy == nil {
		panic("dir: MD_Phantom without a policy")
	}
	d.policy.OnMDPhantom(m.Addr)
	d.notePrvInitResponse(m)
}

func (d *Dir) notePrvInitResponse(m *network.Msg) {
	e := d.llc.Peek(m.Addr)
	if e == nil {
		return
	}
	line := &e.Payload
	txn := line.txn
	if txn == nil || txn.kind != txnPrvInit {
		return
	}
	src := requestorCore(m)
	if txn.expect.Has(src) {
		txn.expect.Remove(src)
		if m.HasCopy {
			txn.prvJoin.Add(src)
		}
	}
	d.maybeFinishPrvInit(e)
}

// ---------------------------------------------------------------------------
// LLC allocation, eviction and memory
// ---------------------------------------------------------------------------

// allocate brings blk into the LLC for request m, evicting a victim if the
// set is full.
func (d *Dir) allocate(blk memsys.Addr, m *network.Msg) {
	if v := d.llc.Victim(blk); v == nil || v.Valid {
		if v == nil {
			// Every way is pinned by an in-progress transaction: retry.
			m.Retain()
			d.retryq = append(d.retryq, m)
			return
		}
		// A valid victim: recall/terminate as required by inclusion.
		if !d.startEvict(v, m) {
			return // eviction in progress; m is held by the eviction
		}
		// Victim dropped synchronously; fall through to insert.
	}
	e, _, displaced := d.llc.Insert(blk)
	if displaced {
		panic("dir: insert displaced a line despite victim pre-check")
	}
	e.Payload = dirLine{dirHot: dirHot{state: DirIdle}}
	d.beginTxn(&e.Payload, dirTxn{kind: txnMemFill})
	m.Retain()
	e.Payload.pendq = append(e.Payload.pendq, m)
	d.stats.MaxID(stats.IDDirPendqPeak, uint64(len(e.Payload.pendq)))
	d.pinLine(blk)
	d.stats.IncID(stats.IDMemReads)
	d.memq = append(d.memq, memFill{readyAt: d.now + d.params.MemLatency, addr: blk})
}

// startEvict removes the victim line. It returns true when the line was
// dropped synchronously (no L1 copies); otherwise it starts a recall or
// termination transaction that holds m and returns false.
func (d *Dir) startEvict(v *memsys.Entry[dirLine], m *network.Msg) bool {
	line := &v.Payload
	if line.txn != nil {
		panic("dir: evicting a busy line")
	}
	switch line.state {
	case DirIdle:
		d.dropLine(v)
		return true
	case DirShared:
		m.Retain()
		d.beginTxn(line, dirTxn{kind: txnEvict, req: m, expect: line.sharers})
		d.pinLine(v.Tag)
		line.sharers.ForEach(func(c int) {
			d.sendAfter(&network.Msg{Op: network.OpInv, Dst: d.params.L1Node(c), Addr: v.Tag, Requestor: d.node}, d.ctrlLat())
		})
		return false
	case DirOwned:
		m.Retain()
		txn := d.beginTxn(line, dirTxn{kind: txnEvict, req: m})
		txn.expect.Add(line.owner)
		d.pinLine(v.Tag)
		d.sendAfter(&network.Msg{Op: network.OpInv, Dst: d.params.L1Node(line.owner), Addr: v.Tag, Requestor: d.node, ToOwner: true}, d.ctrlLat())
		return false
	case DirPrv:
		// Inclusion-driven termination; m retries once the line drops.
		d.startPrvTerm(v, m, true, "evict")
		return false
	}
	panic("dir: bad victim state")
}

func (d *Dir) maybeFinishEvict(e *memsys.Entry[dirLine]) {
	line := &e.Payload
	txn := line.txn
	if txn == nil || txn.kind != txnEvict || !txn.expect.Empty() {
		return
	}
	req := txn.req
	d.endTxn(line)
	d.unpinLine(e.Tag)
	// Any queued requests for the dying block retry from scratch.
	d.drainPendq(line)
	d.dropLine(e)
	if req != nil {
		// Claim the just-freed way immediately so the eviction's trigger
		// request cannot be starved by later allocations. handleRequest
		// re-checks residency: another transaction may have brought the
		// block in meanwhile.
		d.redispatchRequest(req)
	}
}

// dropLine writes the block back to memory if dirty and invalidates the LLC
// entry and all metadata for it.
func (d *Dir) dropLine(e *memsys.Entry[dirLine]) {
	line := &e.Payload
	d.traceState(e.Tag, line.state, DirIdle)
	if line.dirty && line.hasData {
		d.mem.WriteBlock(e.Tag, line.data)
		d.stats.IncID(stats.IDMemWrites)
	}
	if d.policy != nil {
		d.policy.OnDirEviction(e.Tag)
	}
	d.stats.IncID(stats.IDLLCEvicts)
	d.unpinLine(e.Tag)
	d.llc.Invalidate(e.Tag)
	if d.dataDir != nil {
		d.dataDir.Unpin(e.Tag)
		d.dataDir.Invalidate(e.Tag)
	}
}

// finishMemFill completes a main-memory fetch and serves the queued requests
// inline. Serving (rather than re-queueing) is what guarantees forward
// progress under heavy set pressure: the first served request immediately
// re-busies (and thereby pins) the line, so it cannot be chosen as a victim
// before its waiters are satisfied.
func (d *Dir) finishMemFill(blk memsys.Addr) {
	e := d.llc.Peek(blk)
	if e == nil || e.Payload.txn == nil || e.Payload.txn.kind != txnMemFill {
		panic(fmt.Sprintf("dir %d: memory fill for unexpected line %v", d.slice, blk))
	}
	line := &e.Payload
	refetch := line.txn.refetch
	line.data = d.mem.ReadBlock(blk)
	line.dirty = false
	if !refetch {
		line.state = DirIdle
	}
	d.endTxn(line)
	d.unpinLine(blk)
	d.touchData(e)
	d.stats.IncID(stats.IDLLCFills)
	pend := line.pendq
	line.pendq = nil
	for _, m := range pend {
		if line.txn != nil {
			line.pendq = append(line.pendq, m) // still retained
			d.stats.MaxID(stats.IDDirPendqPeak, uint64(len(line.pendq)))
			continue
		}
		m.Unretain()
		d.serve(e, m)
		d.net.Release(m)
	}
}
