package coherence

import (
	"encoding/binary"
	"fmt"

	"fscoherence/internal/memsys"
	"fscoherence/internal/network"
	"fscoherence/internal/obs"
	"fscoherence/internal/stats"
)

// NoEvent is the NextEvent sentinel for coherence controllers: no self-driven
// wake-up is scheduled; the component only acts in response to an incoming
// message (covered by the front of its inbox, Network.NextArrivalFor).
const NoEvent = ^uint64(0)

// l1Line is the per-line payload of an L1 data cache.
type l1Line struct {
	state L1State
	dirty bool
	data  []byte

	// base snapshots the block content at entry into the PRV state; the
	// directory merges reduction words as data-base deltas (§VII).
	base []byte
}

// wbEntry is a writeback-buffer slot: an evicted dirty (or privatized) block
// held until the directory acknowledges the writeback. Late interventions are
// serviced from here (the "phantom message" scenario of §V-D).
type wbEntry struct {
	data  []byte
	dirty bool
	prv   bool
}

// mshrState enumerates the transient states of an outstanding L1 transaction.
type mshrState int

const (
	mshrWaitData     mshrState = iota // IS_D: GetS issued, waiting for data
	mshrWaitDataExcl                  // IM_AD: GetX issued, waiting data + acks
	mshrWaitUpgrade                   // SM_A: Upgrade issued, waiting ack(s)
	mshrWaitChk                       // PRV byte-permission check outstanding
)

// mshr tracks one outstanding transaction. The L1 never coalesces: each MSHR
// carries exactly one demand access.
type mshr struct {
	addr     memsys.Addr
	state    mshrState
	access   *Access
	acksGot  int
	acksNeed int
	ackKnown bool // grant arrived; acksNeed is authoritative
	dataSeen bool

	// invAfterFill: an Inv arrived while waiting for (3-hop) data; consume
	// the data once for the pending access, then drop the line.
	invAfterFill bool

	// reissue: an Inv_PRV (or Inv in SM_A) raced with the grant; when the
	// stale grant arrives, discard it and reissue the transaction (§V-E).
	reissue bool

	// reqMD is the REQ_MD bit carried by the grant; becomes the SEND_MD bit
	// of the freshly allocated PAM entry (§IV).
	reqMD bool

	// payload stashes grant data until outstanding InvAcks are collected.
	payload []byte

	// start stamps transaction issue for the miss-latency histogram.
	start uint64

	// deferred buffers directory-initiated messages (Fwd_Get*/TR_PRV/recall
	// Inv) that arrived while our own grant was still in flight: the
	// directory already considers us the owner/sharer, so the message is
	// serviced right after the local transaction completes. The directory's
	// per-block transactions are mutually exclusive, so at most one message
	// is deferred at a time.
	deferred []*network.Msg
}

// Observer receives architectural commit events (used by the simulation
// engine for the golden-memory oracle and per-op accounting).
//
// Every event carries its commit cycle at, which is the engine's current
// cycle except for hits a run-ahead core commits ahead of it (CommitHit).
// OnLoadCommit also carries the load's issue cycle because a miss-path load
// binds its value at the directory (its coherence-order serialization
// point), which lies anywhere in [issue, at]: the oracle must accept any
// value live during that window, not just the one current at commit. Hits
// serialize at commit and report issue == at. The byte slices are
// little-endian values of the access's size, valid only during the call.
type Observer interface {
	OnLoadCommit(core int, addr memsys.Addr, value []byte, issue, at uint64)
	OnStoreCommit(core int, addr memsys.Addr, value []byte, at uint64)
	// OnReduceCommit reports a commutative accumulation; deltas commit in
	// an arbitrary interleaving, so the oracle sums rather than overwrites.
	OnReduceCommit(core int, addr memsys.Addr, delta []byte, at uint64)
	// OnRMWCommit reports an atomic read-modify-write as one access: it
	// read old and wrote next at commit, holding the line exclusively.
	OnRMWCommit(core int, addr memsys.Addr, old, next []byte, at uint64)
}

// scheduledDone is a local-hit access whose architectural effects have been
// applied (at issue, which is the access's serialization point) and whose
// completion callback fires after the L1 access latency.
type scheduledDone struct {
	done  func(uint64)
	value uint64
	at    uint64
}

// L1 is one core's private data-cache controller.
type L1 struct {
	core     int
	node     network.NodeID
	params   Params
	mode     Protocol
	net      *network.Network
	cache    *memsys.SetAssoc[l1Line]
	l2       *memsys.SetAssoc[l1Line] // optional private victim L2 (§VII)
	wb       map[memsys.Addr]*wbEntry
	mshrs    map[memsys.Addr]*mshr
	mshrFree []*mshr // retired MSHRs, cleared, for startTxn to reuse
	maxMSHRs int
	policy   L1Policy
	stats    *stats.Set
	obs      Observer
	now      uint64

	// Observability attachments (nil when disabled; see SetObs).
	trace    *obs.Tracer
	missHist *obs.Histogram

	local []scheduledDone // local hits awaiting the hit latency

	// obsBuf backs the value bytes commitAt hands the observer when they are
	// not the line's own (a reduction's delta, an atomic's old value).
	obsBuf [8]byte
}

// NewL1 builds the L1 controller for the given core. policy may be nil
// (baseline protocol); obs may be nil.
func NewL1(core int, p Params, mode Protocol, net *network.Network, policy L1Policy, st *stats.Set, obs Observer) *L1 {
	l := &L1{
		core:     core,
		node:     p.L1Node(core),
		params:   p,
		mode:     mode,
		net:      net,
		cache:    memsys.NewSetAssoc[l1Line](fmt.Sprintf("l1d%d", core), p.L1Entries, p.L1Ways, p.BlockSize),
		wb:       make(map[memsys.Addr]*wbEntry),
		mshrs:    make(map[memsys.Addr]*mshr),
		maxMSHRs: 1,
		policy:   policy,
		stats:    st,
		obs:      obs,
	}
	if p.L2Entries > 0 {
		l.l2 = memsys.NewSetAssoc[l1Line](fmt.Sprintf("l2d%d", core), p.L2Entries, p.L2Ways, p.BlockSize)
	}
	return l
}

// SetMaxMSHRs configures the number of concurrently outstanding misses
// (1 for the in-order core, >1 for the out-of-order model).
func (l *L1) SetMaxMSHRs(n int) { l.maxMSHRs = n }

// Core returns the core index this L1 belongs to.
func (l *L1) Core() int { return l.core }

// Node returns the L1's network node, the inbox its Tick drains.
func (l *L1) Node() network.NodeID { return l.node }

// StateOf returns the coherence state of the block containing a (for
// invariant checks and tests).
func (l *L1) StateOf(a memsys.Addr) L1State {
	e := l.peekAny(a)
	if e == nil {
		return L1Invalid
	}
	return e.Payload.state
}

// peekAny returns the entry holding a in the L1 or (if enabled) the L2.
func (l *L1) peekAny(a memsys.Addr) *memsys.Entry[l1Line] {
	if e := l.cache.Peek(a); e != nil {
		return e
	}
	if l.l2 != nil {
		return l.l2.Peek(a)
	}
	return nil
}

// invalidateAny removes a from whichever private level holds it.
func (l *L1) invalidateAny(a memsys.Addr) {
	if e := l.peekAny(a); e != nil {
		l.traceState(a, e.Payload.state, L1Invalid)
	}
	if l.cache.Peek(a) != nil {
		l.cache.Invalidate(a)
		return
	}
	if l.l2 != nil {
		l.l2.Invalidate(a)
	}
}

// OutstandingMisses reports the number of active MSHRs.
func (l *L1) OutstandingMisses() int { return len(l.mshrs) }

// Idle reports whether the controller has no in-flight work.
func (l *L1) Idle() bool {
	return len(l.mshrs) == 0 && len(l.wb) == 0 && len(l.local) == 0
}

// ForEachLine visits every valid line's block address and state (invariant
// checking).
func (l *L1) ForEachLine(fn func(memsys.Addr, L1State)) {
	l.cache.ForEach(func(e *memsys.Entry[l1Line]) {
		fn(e.Tag, e.Payload.state)
	})
	if l.l2 != nil {
		l.l2.ForEach(func(e *memsys.Entry[l1Line]) {
			fn(e.Tag, e.Payload.state)
		})
	}
}

// DebugString summarizes in-flight state (deadlock diagnosis).
func (l *L1) DebugString() string {
	if l.Idle() {
		return ""
	}
	s := fmt.Sprintf("l1 %d:", l.core)
	for a, tx := range l.mshrs {
		s += fmt.Sprintf(" mshr{%v state=%v acks=%d/%d data=%v reissue=%v fwd=%v}",
			a, tx.state, tx.acksGot, tx.acksNeed, tx.dataSeen, tx.reissue, len(tx.deferred))
	}
	for a, wb := range l.wb {
		s += fmt.Sprintf(" wb{%v prv=%v}", a, wb.prv)
	}
	if len(l.local) > 0 {
		s += fmt.Sprintf(" local=%d", len(l.local))
	}
	return s
}

// homeNode returns the directory slice node for address a.
func (l *L1) homeNode(a memsys.Addr) network.NodeID {
	return l.params.SliceNode(l.params.HomeSlice(uint64(a)))
}

// send dispatches a message from this L1. The caller's Msg is copied into a
// pooled message before entering the network, so call sites can build their
// message as a stack-allocated composite literal (the literal never escapes).
func (l *L1) send(m *network.Msg) {
	pm := l.net.NewMsg()
	*pm = *m
	pm.Src = l.node
	l.net.Send(pm)
}

// SubmitResult reports what Submit did with an access.
type SubmitResult int

const (
	SubmitRetry SubmitResult = iota // resource busy; retry next cycle
	SubmitHit                       // local hit; Done will fire after the hit latency
	SubmitMiss                      // transaction started; Done fires on completion
)

// Submit hands a demand access to the L1. The access completes asynchronously
// through its Done callback. Submit returns SubmitRetry when the access
// cannot be accepted this cycle (MSHR conflict or capacity, or the block sits
// in the writeback buffer awaiting an ack).
func (l *L1) Submit(a *Access) SubmitResult {
	a.Validate(l.params.BlockSize)
	blk := a.Addr.BlockAlign(l.params.BlockSize)

	if l.busy(blk) {
		return SubmitRetry
	}

	e := l.cache.Lookup(blk)
	if e != nil {
		if l.tryLocal(a, blk, e, l.params.L1HitCycles) {
			l.stats.IncID(stats.IDL1DAccesses)
			return SubmitHit
		}
		// Resident but insufficient permission: upgrade or CHK transaction.
		if len(l.mshrs) >= l.maxMSHRs {
			return SubmitRetry
		}
		l.stats.IncID(stats.IDL1DAccesses)
		l.stats.IncID(stats.IDL1DMisses)
		switch e.Payload.state {
		case L1Shared:
			l.startTxn(a, blk, mshrWaitUpgrade, network.OpUpgrade)
		case L1Prv:
			op := network.OpGetCHK
			if a.IsWrite() {
				op = network.OpGetXCHK
			}
			l.stats.IncID(stats.IDFSChkRequests)
			l.startTxn(a, blk, mshrWaitChk, op)
		default:
			panic(fmt.Sprintf("l1: unexpected permission miss in state %v", e.Payload.state))
		}
		l.cache.Pin(blk) // transaction targets a resident line
		return SubmitMiss
	}

	// L1 miss: a hit in the private L2 promotes the line (keeping its
	// coherence state) without any directory traffic; the access then
	// proceeds as if L1-resident, with the L2 access latency added.
	if l.l2 != nil {
		if e2 := l.l2.Lookup(blk); e2 != nil {
			line := e2.Payload
			l.l2.Invalidate(blk)
			ne, victim, evicted := l.cache.Insert(blk)
			if evicted {
				l.evict(&victim)
			}
			ne.Payload = line
			if l.policy != nil {
				// A fresh PAM entry: the old one was shipped to the SAM
				// when the line left the L1 (§VII).
				l.policy.Allocate(blk, false)
			}
			l.stats.Inc("l2.hits")
			if l.tryLocal(a, blk, ne, l.params.L1HitCycles+l.params.L2HitCycles) {
				l.stats.IncID(stats.IDL1DAccesses)
				l.stats.IncID(stats.IDL1DMisses) // an L1 miss, served by the L2
				return SubmitHit
			}
			// Permission miss after promotion: fall through to a
			// transaction against the resident line.
			if len(l.mshrs) >= l.maxMSHRs {
				return SubmitRetry
			}
			l.stats.IncID(stats.IDL1DAccesses)
			l.stats.IncID(stats.IDL1DMisses)
			switch ne.Payload.state {
			case L1Shared:
				l.startTxn(a, blk, mshrWaitUpgrade, network.OpUpgrade)
			case L1Prv:
				op := network.OpGetCHK
				if a.IsWrite() {
					op = network.OpGetXCHK
				}
				l.stats.IncID(stats.IDFSChkRequests)
				l.startTxn(a, blk, mshrWaitChk, op)
			default:
				panic("l1: unexpected permission miss after L2 promotion")
			}
			l.cache.Pin(blk)
			return SubmitMiss
		}
	}

	// Block absent: demand fetch.
	if len(l.mshrs) >= l.maxMSHRs {
		return SubmitRetry
	}
	l.stats.IncID(stats.IDL1DAccesses)
	l.stats.IncID(stats.IDL1DMisses)
	if a.IsWrite() {
		l.startTxn(a, blk, mshrWaitDataExcl, network.OpGetX)
	} else {
		l.startTxn(a, blk, mshrWaitData, network.OpGetS)
	}
	return SubmitMiss
}

// busy reports whether blk has an MSHR (no coalescing: one transaction per
// block) or sits in the writeback buffer awaiting its ack; an access to it
// must wait.
func (l *L1) busy(blk memsys.Addr) bool {
	if _, ok := l.mshrs[blk]; ok {
		return true
	}
	_, ok := l.wb[blk]
	return ok
}

// tryLocal satisfies the access against the resident line e, committing it
// now and completing it delay cycles later. It returns false, changing
// nothing, when a permission transaction is required.
func (l *L1) tryLocal(a *Access, blk memsys.Addr, e *memsys.Entry[l1Line], delay uint64) bool {
	v, ok := l.hitAt(a, blk, e, l.now)
	if !ok {
		return false
	}
	l.local = append(l.local, scheduledDone{done: a.Done, value: v, at: l.now + delay})
	return true
}

// CommitHit commits a at cycle at if it is a pure L1 hit: the block resident
// in the L1 with the permission a needs and no MSHR or writeback-buffer entry
// for it. It takes Submit's hit path — the LRU refresh, the silent E->M
// upgrade, the PAM check and update, the commit counters and the observer —
// but queues no completion: the caller proceeds as if Done had fired
// L1HitCycles after at. It returns the value read (the pre-RMW value for an
// atomic, 0 for a store or reduction) and declines (ok=false) prefetches,
// misses, permission misses and L2 promotions.
//
// A run-ahead core commits its hits here ahead of the engine's clock, so at
// may lie past the L1's last tick; the caller must guarantee that no message
// reaches this L1 before at.
func (l *L1) CommitHit(a *Access, at uint64) (v uint64, ok bool) {
	a.Validate(l.params.BlockSize)
	blk := a.Addr.BlockAlign(l.params.BlockSize)
	if a.Kind == AccessPrefetch || l.busy(blk) {
		return 0, false
	}
	e := l.cache.Lookup(blk)
	if e == nil {
		return 0, false
	}
	if v, ok = l.hitAt(a, blk, e, at); ok {
		l.stats.IncID(stats.IDL1DAccesses)
	}
	return v, ok
}

// HitCycles returns the L1 hit latency: Submit fires a hit's Done this many
// cycles after the commit.
func (l *L1) HitCycles() uint64 { return l.params.L1HitCycles }

// hitAt commits a at cycle at as a hit on the resident entry e — the hit
// path of Submit and CommitHit: commitAt, plus the L1D hit count, which a
// prefetch does not take. ok=false means a permission transaction is
// required; nothing changed.
func (l *L1) hitAt(a *Access, blk memsys.Addr, e *memsys.Entry[l1Line], at uint64) (v uint64, ok bool) {
	v, ok = l.commitAt(a, blk, &e.Payload, at, at)
	if ok && a.Kind != AccessPrefetch {
		l.stats.IncID(stats.IDL1DHits)
	}
	return v, ok
}

// startTxn allocates an MSHR and sends the request.
func (l *L1) startTxn(a *Access, blk memsys.Addr, st mshrState, op network.Op) {
	var m *mshr
	if k := len(l.mshrFree); k > 0 {
		m = l.mshrFree[k-1]
		l.mshrFree = l.mshrFree[:k-1]
	} else {
		m = new(mshr)
	}
	m.addr, m.state, m.access, m.start = blk, st, a, l.now
	l.mshrs[blk] = m
	l.sendRequest(m, op)
}

// retireTxn clears a completed MSHR, already removed from l.mshrs, and
// returns it to the freelist. The deferred buffer keeps its capacity.
func (l *L1) retireTxn(m *mshr) {
	deferred := m.deferred
	clear(deferred)
	*m = mshr{deferred: deferred[:0]}
	l.mshrFree = append(l.mshrFree, m)
}

func (l *L1) sendRequest(m *mshr, op network.Op) {
	touchedOff, touchedLen := 0, 0
	if m.access.Kind != AccessPrefetch {
		touchedOff = m.access.Addr.BlockOffset(l.params.BlockSize)
		touchedLen = m.access.Size
	}
	l.send(&network.Msg{
		Op:         op,
		Dst:        l.homeNode(m.addr),
		Addr:       m.addr,
		Requestor:  l.node,
		TouchedOff: touchedOff,
		TouchedLen: touchedLen,
	})
}

// Tick processes due local commits and up to MaxMsgsPerCycle network
// messages. The engine calls it once per cycle after the network delivers.
func (l *L1) Tick(now uint64) {
	l.now = now
	// Deliver local-hit completions whose latency elapsed, preserving order.
	keep := l.local[:0]
	for _, sc := range l.local {
		if sc.at <= now {
			if sc.done != nil {
				sc.done(sc.value)
			}
		} else {
			keep = append(keep, sc)
		}
	}
	l.local = keep

	for i := 0; i < l.params.MaxMsgsPerCycle; i++ {
		msg := l.net.Recv(l.node)
		if msg == nil {
			break
		}
		l.handle(msg)
		l.net.Release(msg) // no-op if a handler retained (deferred) it
	}
}

// NextEvent returns the earliest cycle > now at which the controller has
// self-driven work: the next due local-hit completion. Everything else the L1
// does is a reaction to network delivery (covered by its inbox's front,
// Network.NextArrivalFor) or
// to a core's Submit. NoEvent means no local completions are scheduled.
func (l *L1) NextEvent(now uint64) uint64 {
	next := NoEvent
	for i := range l.local {
		if at := l.local[i].at; at < next {
			next = at
		}
	}
	return next
}

// redispatch re-handles a message that a handler had retained (deferred)
// earlier, releasing it afterwards unless it was retained again.
func (l *L1) redispatch(m *network.Msg) {
	m.Unretain()
	l.handle(m)
	l.net.Release(m)
}

// commitAt is the L1's one commit path. line is the block blk's line, which
// the caller looked up. When its state (and, for a privatized line, the PAM's
// bits) permit a, commitAt applies the silent E->M upgrade and performs a at
// cycle at: it reads and writes the line's bytes, updates private metadata
// and the commit counters, notifies the observer, and returns the value read
// (the pre-RMW value for an atomic, 0 for a store, reduction or prefetch) and
// ok=true. ok=false means a permission transaction is required; nothing
// changed. issue is the access's issue cycle: for a miss-path load that is
// the cycle the request entered the system (the serialization point lies
// between it and at); for hits it equals at. A line in state L1Invalid stands
// for a use-once fill (commitFromBuffer): its data is the grant's payload and
// it has no PAM entry to update.
func (l *L1) commitAt(a *Access, blk memsys.Addr, line *l1Line, issue, at uint64) (uint64, bool) {
	off := a.Addr.BlockOffset(l.params.BlockSize)
	rd, wr := true, a.Kind != AccessLoad
	switch a.Kind {
	case AccessPrefetch:
		return 0, true
	case AccessLoad:
	default:
		switch line.state {
		case L1Modified, L1Prv:
		case L1Exclusive:
			line.state = L1Modified // silent E->M upgrade
			l.traceState(blk, L1Exclusive, L1Modified)
		case L1Shared:
			return 0, false
		default:
			panic("l1: unreachable")
		}
		rd = a.Kind != AccessStore
	}
	// One PAM call records the access; on a PRV line it first checks that
	// the entry's bits already cover it.
	if l.policy != nil && line.state != L1Invalid &&
		!l.policy.Commit(blk, off, a.Size, line.state == L1Prv, rd, wr) {
		return 0, false
	}
	b := line.data[off : off+a.Size]
	old := leVal(b)
	switch a.Kind {
	case AccessLoad:
		if l.obs != nil {
			l.obs.OnLoadCommit(l.core, a.Addr, b, issue, at)
		}
		l.stats.IncID(stats.IDLoadsCommitted)
		return old, true
	case AccessStore:
		putLEVal(b, a.Value)
		line.dirty = true
		if l.obs != nil {
			l.obs.OnStoreCommit(l.core, a.Addr, b, at)
		}
		l.stats.IncID(stats.IDStoresCommit)
		return 0, true
	case AccessReduce:
		putLEVal(b, old+a.Value)
		line.dirty = true
		if l.obs != nil {
			l.obs.OnReduceCommit(l.core, a.Addr, l.obsBytes(a.Value, a.Size), at)
		}
		l.stats.IncID(stats.IDReducesCommit)
		return 0, true
	case AccessAtomicRMW:
		next := old + a.Value
		if a.RMW != nil {
			next = a.RMW(old)
		}
		putLEVal(b, next)
		line.dirty = true
		if l.obs != nil {
			l.obs.OnRMWCommit(l.core, a.Addr, l.obsBytes(old, a.Size), b, at)
		}
		l.stats.IncID(stats.IDAtomicsCommit)
		return old, true
	}
	panic("l1: unreachable")
}

// obsBytes renders v as a size-byte little-endian slice for the observer, in
// the L1's scratch buffer.
func (l *L1) obsBytes(v uint64, size int) []byte {
	b := l.obsBuf[:size]
	putLEVal(b, v)
	return b
}

// fill installs a block, evicting a victim if needed.
func (l *L1) fill(blk memsys.Addr, data []byte, st L1State, dirty bool, sendMD bool) {
	if l.peekAny(blk) != nil {
		panic(fmt.Sprintf("l1 %d: fill of resident block %v", l.core, blk))
	}
	e, victim, evicted := l.cache.Insert(blk)
	if evicted {
		l.evict(&victim)
	}
	e.Payload = l1Line{state: st, dirty: dirty, data: data}
	l.traceState(blk, L1Invalid, st)
	l.stats.IncID(stats.IDL1DFills)
	if l.policy != nil {
		l.policy.Allocate(blk, sendMD)
	}
}

// evict handles a line displaced from the L1. With a private L2 the data
// moves there silently, keeping its coherence state — but the PAM entry is
// invalidated and shipped to the SAM now, at L1 eviction, exactly as §VII
// prescribes for the three-level hierarchy. Without an L2 (or when the line
// is displaced from the L2 itself) the line leaves the private hierarchy:
// silent drop for clean S, writeback for E/M, privatized writeback for PRV.
func (l *L1) evict(ev *memsys.Entry[l1Line]) {
	if l.l2 != nil {
		l.stats.IncID(stats.IDL1DEvicts)
		l.sendEvictionMD(ev.Tag) // PAM leaves with the L1 residence
		if ev.Payload.state == L1Prv && l.policy != nil {
			l.policy.Drop(ev.Tag)
		}
		e2, victim, evicted := l.l2.Insert(ev.Tag)
		e2.Payload = ev.Payload
		if evicted {
			l.evictFromHierarchy(&victim, false)
		}
		return
	}
	l.evictFromHierarchy(ev, true)
}

// evictFromHierarchy handles a line leaving the private cache hierarchy
// entirely. shipMD is true when the line comes straight from the L1 (its PAM
// entry has not been shipped yet).
func (l *L1) evictFromHierarchy(ev *memsys.Entry[l1Line], shipMD bool) {
	blk := ev.Tag
	line := ev.Payload
	l.traceState(blk, line.state, L1Invalid)
	l.stats.IncID(stats.IDL1DEvicts)
	if !shipMD {
		// The PAM entry was already communicated at L1 eviction; only the
		// directory-visible eviction remains.
		switch line.state {
		case L1Shared:
		case L1Exclusive:
			l.wb[blk] = &wbEntry{data: line.data}
			l.send(&network.Msg{Op: network.OpWB, Dst: l.homeNode(blk), Addr: blk, Data: line.data, Requestor: l.node})
		case L1Modified:
			l.stats.IncID(stats.IDL1DWbDirty)
			l.wb[blk] = &wbEntry{data: line.data, dirty: true}
			l.send(&network.Msg{Op: network.OpWB, Dst: l.homeNode(blk), Addr: blk, Data: line.data, Dirty: true, Requestor: l.node})
		case L1Prv:
			l.stats.IncID(stats.IDL1DWbDirty)
			l.wb[blk] = &wbEntry{data: line.data, dirty: true, prv: true}
			l.send(&network.Msg{Op: network.OpPrvWB, Dst: l.homeNode(blk), Addr: blk, Data: line.data, Base: line.base, Requestor: l.node})
		default:
			panic("l1: evicting invalid line from L2")
		}
		return
	}
	switch line.state {
	case L1Shared:
		// Silent clean eviction (§IV).
		l.sendEvictionMD(blk)
	case L1Exclusive:
		// A clean writeback keeps the directory's owner field exact, so the
		// directory never forwards an intervention to a core with no copy
		// and no writeback-buffer entry.
		l.wb[blk] = &wbEntry{data: line.data}
		l.send(&network.Msg{Op: network.OpWB, Dst: l.homeNode(blk), Addr: blk, Data: line.data, Requestor: l.node})
		l.sendEvictionMD(blk)
	case L1Modified:
		l.stats.IncID(stats.IDL1DWbDirty)
		l.wb[blk] = &wbEntry{data: line.data, dirty: true}
		l.send(&network.Msg{Op: network.OpWB, Dst: l.homeNode(blk), Addr: blk, Data: line.data, Dirty: true, Requestor: l.node})
		l.sendEvictionMD(blk)
	case L1Prv:
		l.stats.IncID(stats.IDL1DWbDirty)
		l.wb[blk] = &wbEntry{data: line.data, dirty: true, prv: true}
		l.send(&network.Msg{Op: network.OpPrvWB, Dst: l.homeNode(blk), Addr: blk, Data: line.data, Base: line.base, Requestor: l.node})
		if l.policy != nil {
			l.policy.Drop(blk)
		}
	default:
		panic("l1: evicting invalid line")
	}
}

// sendEvictionMD ships the PAM entry to the directory if SEND_MD is set and
// invalidates the entry (§IV, eviction of private blocks).
func (l *L1) sendEvictionMD(blk memsys.Addr) {
	if l.policy == nil {
		return
	}
	mdR, mdW, sendMD, ok := l.policy.TakeEntry(blk)
	if ok && sendMD {
		l.stats.IncID(stats.IDFSMetadataMsgs)
		l.send(&network.Msg{Op: network.OpRepMD, Dst: l.homeNode(blk), Addr: blk, MDRead: mdR, MDWrite: mdW, Requestor: l.node})
	}
}

// onWBAck frees the writeback-buffer slot (a no-op when a stale ack arrives
// after the block was re-acquired and the slot already recycled).
func (l *L1) onWBAck(m *network.Msg) {
	delete(l.wb, m.Addr)
}

// finishTxn completes an MSHR: commit its access and release resources. The
// miss latency has already been paid, so Done fires immediately. A buffered
// intervention (which the directory ordered after our grant) is serviced
// right after the commit.
func (l *L1) finishTxn(m *mshr) {
	delete(l.mshrs, m.addr)
	l.cache.Unpin(m.addr)
	l.noteMiss(m.addr, m.start)
	e := l.cache.Peek(m.addr)
	if e == nil {
		panic(fmt.Sprintf("l1 %d: commit to non-resident %v", l.core, m.addr))
	}
	v, ok := l.commitAt(m.access, m.addr, &e.Payload, m.start, l.now)
	if !ok {
		panic(fmt.Sprintf("l1 %d: transaction on %v completed without permission", l.core, m.addr))
	}
	if m.access.Done != nil {
		m.access.Done(v)
	}
	for _, dm := range m.deferred {
		l.redispatch(dm)
	}
	l.retireTxn(m)
}

// reissueTxn restarts an MSHR's transaction from scratch as GetS/GetX.
func (l *L1) reissueTxn(m *mshr) {
	m.reissue = false
	m.dataSeen = false
	m.ackKnown = false
	m.acksGot = 0
	m.acksNeed = 0
	m.invAfterFill = false
	if m.access.IsWrite() {
		m.state = mshrWaitDataExcl
		l.sendRequest(m, network.OpGetX)
	} else {
		m.state = mshrWaitData
		l.sendRequest(m, network.OpGetS)
	}
}

// onData handles Data (S grant) and DataExcl (E/M grant) responses.
func (l *L1) onData(m *network.Msg) {
	tx, ok := l.mshrs[m.Addr]
	if !ok {
		panic(fmt.Sprintf("l1 %d: data for no txn %v", l.core, m))
	}
	if tx.reissue {
		// Stale grant after an Inv_PRV race (§V-E fig. 11): discard, retry.
		l.reissueTxn(tx)
		return
	}
	switch tx.state {
	case mshrWaitData:
		if tx.invAfterFill {
			// Use-once: commit the load from the message payload, stay I.
			l.noteMiss(tx.addr, tx.start)
			l.commitFromBuffer(tx, m.Data)
			delete(l.mshrs, m.Addr)
			for _, dm := range tx.deferred {
				l.redispatch(dm) // no copy left: answered from the I state
			}
			l.retireTxn(tx)
			return
		}
		st := L1Shared
		if m.Op == network.OpDataExcl {
			st = L1Exclusive
		}
		l.fill(m.Addr, m.Data, st, false, m.ReqMD)
		l.finishTxn(tx)
	case mshrWaitDataExcl:
		if m.Op == network.OpData {
			panic("l1: GetX answered with shared data")
		}
		tx.dataSeen = true
		tx.acksNeed += m.AckCount
		tx.ackKnown = true
		tx.reqMD = tx.reqMD || m.ReqMD
		tx.addr = m.Addr
		// Stash the payload until acks complete.
		tx.payload = m.Data
		l.maybeCompleteExcl(tx)
	case mshrWaitChk:
		// The privatized episode ended while our CHK was in flight; the
		// directory converted it to a demand request (§V-C). The Inv_PRV has
		// already invalidated our PRV copy.
		if l.cache.Peek(m.Addr) != nil {
			panic("l1: CHK->data conversion with line still resident")
		}
		if tx.access.IsWrite() {
			tx.state = mshrWaitDataExcl
		} else {
			tx.state = mshrWaitData
		}
		l.onData(m)
	default:
		panic(fmt.Sprintf("l1 %d: data in state %d", l.core, tx.state))
	}
}

// commitFromBuffer commits a load/prefetch directly from a message payload
// (invalidated-while-pending fill).
func (l *L1) commitFromBuffer(tx *mshr, data []byte) {
	a := tx.access
	if a.Kind != AccessLoad && a.Kind != AccessPrefetch {
		panic("l1: use-once fill for a write")
	}
	v, _ := l.commitAt(a, tx.addr, &l1Line{data: data}, tx.start, l.now)
	if a.Done != nil {
		a.Done(v)
	}
}

func (l *L1) maybeCompleteExcl(tx *mshr) {
	if !tx.dataSeen || !tx.ackKnown || tx.acksGot < tx.acksNeed {
		return
	}
	l.fill(tx.addr, tx.payload, L1Modified, true, tx.reqMD)
	l.finishTxn(tx)
}

func (l *L1) onInvAck(m *network.Msg) {
	tx, ok := l.mshrs[m.Addr]
	if !ok {
		panic(fmt.Sprintf("l1 %d: stray InvAck %v", l.core, m))
	}
	tx.acksGot++
	switch tx.state {
	case mshrWaitDataExcl:
		l.maybeCompleteExcl(tx)
	case mshrWaitUpgrade:
		l.maybeCompleteUpgrade(tx)
	default:
		panic("l1: InvAck in unexpected state")
	}
}

func (l *L1) onUpgradeAck(m *network.Msg) {
	tx, ok := l.mshrs[m.Addr]
	if !ok || tx.state != mshrWaitUpgrade {
		panic(fmt.Sprintf("l1 %d: stray UpgradeAck %v", l.core, m))
	}
	tx.dataSeen = true
	tx.acksNeed += m.AckCount
	tx.ackKnown = true
	l.maybeCompleteUpgrade(tx)
}

func (l *L1) maybeCompleteUpgrade(tx *mshr) {
	if !tx.dataSeen || !tx.ackKnown || tx.acksGot < tx.acksNeed {
		return
	}
	e := l.cache.Peek(tx.addr)
	if e == nil || e.Payload.state != L1Shared {
		panic("l1: upgrade completion without an S line")
	}
	e.Payload.state = L1Modified
	e.Payload.dirty = true
	l.traceState(tx.addr, L1Shared, L1Modified)
	l.finishTxn(tx)
}

func (l *L1) onUpgradeNack(m *network.Msg) {
	tx, ok := l.mshrs[m.Addr]
	if !ok || tx.state != mshrWaitUpgrade {
		panic(fmt.Sprintf("l1 %d: stray UpgradeNack %v", l.core, m))
	}
	// Our S copy raced with another writer: drop it (if still present) and
	// retry as a full GetX (§V-E fig. 12 behaviour in the baseline too).
	if e := l.cache.Peek(tx.addr); e != nil {
		if e.Payload.state != L1Shared {
			panic("l1: Nacked upgrade with non-S line")
		}
		l.cache.Unpin(tx.addr)
		l.cache.Invalidate(tx.addr)
		l.traceState(tx.addr, L1Shared, L1Invalid)
		if l.policy != nil {
			l.policy.Drop(tx.addr)
		}
	}
	l.reissueTxn(tx)
}

func (l *L1) onUpgAckPrv(m *network.Msg) {
	tx, ok := l.mshrs[m.Addr]
	if !ok || tx.state != mshrWaitUpgrade {
		panic(fmt.Sprintf("l1 %d: stray UpgAckPrv %v", l.core, m))
	}
	if tx.reissue {
		// Inv_PRV beat the grant (fig. 12): our copy is gone; retry as GetX.
		l.reissueTxn(tx)
		return
	}
	// The TR_PRV that preceded this grant already moved our line to PRV and
	// allocated a fresh PAM entry; the grant's conflict check covered the
	// touched bytes, which Commit records unchecked.
	e := l.cache.Peek(tx.addr)
	if e == nil || e.Payload.state != L1Prv {
		panic("l1: UpgAckPrv without a PRV line")
	}
	if l.policy != nil {
		off := tx.access.Addr.BlockOffset(l.params.BlockSize)
		l.policy.Commit(tx.addr, off, tx.access.Size, false, false, true)
	}
	l.finishTxn(tx)
}

func (l *L1) onDataPrv(m *network.Msg) {
	tx, ok := l.mshrs[m.Addr]
	if !ok {
		panic(fmt.Sprintf("l1 %d: stray Data_PRV %v", l.core, m))
	}
	if tx.reissue {
		l.reissueTxn(tx)
		return
	}
	if tx.state != mshrWaitData && tx.state != mshrWaitDataExcl {
		panic(fmt.Sprintf("l1 %d: Data_PRV in state %d", l.core, tx.state))
	}
	l.fill(m.Addr, m.Data, L1Prv, false, false)
	if e := l.cache.Peek(m.Addr); e != nil {
		e.Payload.base = cloneBytes(e.Payload.data)
	}
	if l.policy != nil && tx.access.Kind != AccessPrefetch {
		off := tx.access.Addr.BlockOffset(l.params.BlockSize)
		w := tx.access.IsWrite()
		l.policy.Commit(m.Addr, off, tx.access.Size, false, !w, w)
	}
	l.finishTxn(tx)
}

func (l *L1) onAckPrv(m *network.Msg) {
	tx, ok := l.mshrs[m.Addr]
	if !ok || tx.state != mshrWaitChk {
		panic(fmt.Sprintf("l1 %d: stray Ack_PRV %v", l.core, m))
	}
	e := l.cache.Peek(m.Addr)
	if e == nil || e.Payload.state != L1Prv {
		panic("l1: Ack_PRV without a PRV line")
	}
	if l.policy != nil {
		off := tx.access.Addr.BlockOffset(l.params.BlockSize)
		w := tx.access.IsWrite()
		l.policy.Commit(m.Addr, off, tx.access.Size, false, !w, w)
	}
	l.finishTxn(tx)
}

// bufferFwd stashes an intervention that raced ahead of our own ownership
// grant; it reports whether the intervention was buffered.
func (l *L1) bufferFwd(m *network.Msg) bool {
	tx, ok := l.mshrs[m.Addr]
	if !ok {
		return false
	}
	switch tx.state {
	case mshrWaitData, mshrWaitDataExcl, mshrWaitUpgrade:
	case mshrWaitChk:
		// A CHK converted to a demand request by a privatization
		// termination (§V-C): the grant is in flight, and the directory
		// already considers us the owner.
		if l.cache.Peek(m.Addr) != nil {
			return false
		}
	default:
		return false
	}
	m.Retain()
	tx.deferred = append(tx.deferred, m)
	return true
}

// onFwdGetS: intervention for a read. The owner supplies data to the
// requestor, refreshes the LLC copy, and downgrades to S (§IV example).
func (l *L1) onFwdGetS(m *network.Msg) {
	e := l.peekAny(m.Addr)
	if e != nil && (e.Payload.state == L1Exclusive || e.Payload.state == L1Modified) {
		l.send(&network.Msg{Op: network.OpData, Dst: m.Requestor, Addr: m.Addr, Data: cloneBytes(e.Payload.data), ReqMD: m.ReqMD})
		l.send(&network.Msg{Op: network.OpDataToDir, Dst: m.Src, Addr: m.Addr, Data: cloneBytes(e.Payload.data), Requestor: l.node})
		l.traceState(m.Addr, e.Payload.state, L1Shared)
		e.Payload.state = L1Shared
		e.Payload.dirty = false
		if l.policy != nil {
			if m.ReqMD {
				// Report our PAM entry (keeping the line) and remember to
				// report again on eviction (§IV).
				if mdR, mdW, ok := l.policy.PeekEntry(m.Addr); ok {
					l.stats.IncID(stats.IDFSMetadataMsgs)
					l.send(&network.Msg{Op: network.OpRepMD, Dst: m.Src, Addr: m.Addr, MDRead: mdR, MDWrite: mdW, HasCopy: true, Requestor: l.node})
				} else {
					l.sendPhantom(m.Src, m.Addr)
				}
			}
			l.policy.SetSendMD(m.Addr, m.ReqMD)
		}
		return
	}
	if wbe, ok := l.wb[m.Addr]; ok {
		// Late intervention: serve from the writeback buffer (§V-D).
		l.send(&network.Msg{Op: network.OpData, Dst: m.Requestor, Addr: m.Addr, Data: cloneBytes(wbe.data), ReqMD: m.ReqMD})
		l.send(&network.Msg{Op: network.OpDataToDir, Dst: m.Src, Addr: m.Addr, Data: cloneBytes(wbe.data), Requestor: l.node})
		if m.ReqMD {
			l.sendPhantom(m.Src, m.Addr)
		}
		return
	}
	if l.bufferFwd(m) {
		return
	}
	panic(fmt.Sprintf("l1 %d: Fwd_GetS with no copy for %v", l.core, m.Addr))
}

// onFwdGetX: intervention for ownership. The owner supplies data to the
// requestor, notifies the directory of the ownership transfer, invalidates.
// The line is invalidated in this handler, so its buffer is handed to the
// DataExcl message rather than copied: a live line's buffer has no other
// holder (grants, fills and LLC writebacks all copy), so the requestor's
// line becomes its only holder. The writeback-buffer path still copies,
// because the buffer entry and its WB message share that buffer.
func (l *L1) onFwdGetX(m *network.Msg) {
	e := l.peekAny(m.Addr)
	if e != nil && (e.Payload.state == L1Exclusive || e.Payload.state == L1Modified) {
		l.send(&network.Msg{Op: network.OpDataExcl, Dst: m.Requestor, Addr: m.Addr, Data: e.Payload.data, Dirty: true, ReqMD: m.ReqMD})
		l.send(&network.Msg{Op: network.OpXferOwnerAck, Dst: m.Src, Addr: m.Addr, Requestor: l.node})
		l.invalidateAny(m.Addr)
		l.takeAndReportMD(m.Src, m.Addr, m.ReqMD)
		return
	}
	if wbe, ok := l.wb[m.Addr]; ok {
		l.send(&network.Msg{Op: network.OpDataExcl, Dst: m.Requestor, Addr: m.Addr, Data: cloneBytes(wbe.data), Dirty: true, ReqMD: m.ReqMD})
		l.send(&network.Msg{Op: network.OpXferOwnerAck, Dst: m.Src, Addr: m.Addr, Requestor: l.node})
		if m.ReqMD {
			l.sendPhantom(m.Src, m.Addr)
		}
		return
	}
	if l.bufferFwd(m) {
		return
	}
	panic(fmt.Sprintf("l1 %d: Fwd_GetX with no copy for %v", l.core, m.Addr))
}

// takeAndReportMD clears the PAM entry on invalidation and sends REP_MD to
// the directory if metadata was requested; a missing entry with REQ_MD set
// produces a phantom message (§V-D).
func (l *L1) takeAndReportMD(dir network.NodeID, blk memsys.Addr, reqMD bool) {
	if l.policy == nil {
		return
	}
	mdR, mdW, _, ok := l.policy.TakeEntry(blk)
	if !reqMD {
		return
	}
	if ok {
		l.stats.IncID(stats.IDFSMetadataMsgs)
		l.send(&network.Msg{Op: network.OpRepMD, Dst: dir, Addr: blk, MDRead: mdR, MDWrite: mdW, Requestor: l.node})
	} else {
		l.sendPhantom(dir, blk)
	}
}

func (l *L1) sendPhantom(dir network.NodeID, blk memsys.Addr) {
	l.stats.IncID(stats.IDFSPhantomMsgs)
	l.stats.IncID(stats.IDFSMetadataMsgs)
	l.send(&network.Msg{Op: network.OpMDPhantom, Dst: dir, Addr: blk, Requestor: l.node})
}

// onInv handles invalidations: of an S copy (another core is writing), of a
// stale sharer entry (we silently evicted), or a recall of an owned line
// (inclusive-LLC back-invalidation, distinguished by our E/M state).
func (l *L1) onInv(m *network.Msg) {
	e := l.peekAny(m.Addr)
	if e != nil {
		switch e.Payload.state {
		case L1Shared:
			if tx, ok := l.mshrs[m.Addr]; ok && tx.state == mshrWaitUpgrade {
				if m.ToOwner && tx.dataSeen {
					// An owner recall overtaking the InvAcks of our granted
					// upgrade: answer it once the line is ours (as onTRPrv
					// defers).
					m.Retain()
					tx.deferred = append(tx.deferred, m)
					return
				}
				// SM_A race: invalidate; the directory will Nack our upgrade.
				l.cache.Unpin(m.Addr)
			}
			l.invalidateAny(m.Addr)
			// Requestor identifies the responder: the directory's recall
			// transaction removes exactly this core from its expect set.
			l.send(&network.Msg{Op: network.OpInvAck, Dst: m.Requestor, Addr: m.Addr, ReqMD: m.ReqMD, Requestor: l.node})
			l.takeAndReportMD(m.Src, m.Addr, m.ReqMD)
			return
		case L1Exclusive, L1Modified:
			// LLC back-invalidation recall: return the block to the slice.
			data := cloneBytes(e.Payload.data)
			dirty := e.Payload.dirty
			l.invalidateAny(m.Addr)
			l.send(&network.Msg{Op: network.OpWB, Dst: m.Src, Addr: m.Addr, Data: data, Dirty: dirty, Requestor: l.node})
			l.takeAndReportMD(m.Src, m.Addr, m.ReqMD)
			return
		case L1Prv:
			panic("l1: plain Inv for a PRV line")
		}
	}
	// No copy resident.
	if m.ToOwner {
		// An owner recall: the directory holds us as the E/M owner, so
		// either our eviction writeback is in flight (the directory will
		// absorb and count it) or an ownership grant is in flight (defer
		// the recall until the transaction completes and we hold the data).
		if _, inWB := l.wb[m.Addr]; inWB {
			return
		}
		if tx, ok := l.mshrs[m.Addr]; ok {
			m.Retain()
			tx.deferred = append(tx.deferred, m)
			return
		}
		panic(fmt.Sprintf("l1 %d: owner recall with no copy, no WB, no txn for %v", l.core, m.Addr))
	}
	// Stale invalidation after a silent eviction, or an Inv racing a pending
	// fill (including a CHK converted to a read by a termination).
	if tx, ok := l.mshrs[m.Addr]; ok {
		if tx.state == mshrWaitData ||
			(tx.state == mshrWaitChk && !tx.access.IsWrite()) {
			tx.invAfterFill = true
		}
	}
	l.send(&network.Msg{Op: network.OpInvAck, Dst: m.Requestor, Addr: m.Addr, ReqMD: m.ReqMD, Requestor: l.node})
	if m.ReqMD {
		l.sendPhantom(m.Src, m.Addr)
	}
}

// onTRPrv: the directory is privatizing this block (§V-A). Any core with a
// valid copy ships its PAM entry (or a phantom), clears it, and moves the
// line to PRV keeping the data; the M owner also refreshes the LLC copy.
func (l *L1) onTRPrv(m *network.Msg) {
	// If the directory considers us the owner because of a grant that is
	// still completing (DataExcl in flight, or an acked upgrade awaiting
	// third-party InvAcks), defer until the transaction finishes: the
	// directory is waiting for the owner's data. An upgrade that has not
	// been granted yet (queued at the directory) is the fig. 12 sharer case
	// and is handled immediately below.
	if tx, ok := l.mshrs[m.Addr]; ok {
		owner := tx.state == mshrWaitData || tx.state == mshrWaitDataExcl ||
			(tx.state == mshrWaitUpgrade && tx.dataSeen)
		if owner {
			m.Retain()
			tx.deferred = append(tx.deferred, m)
			return
		}
	}
	e := l.peekAny(m.Addr)
	if e == nil {
		// Copy already gone (silent drop or writeback in flight).
		l.sendPhantomWithCopy(m.Src, m.Addr, false)
		return
	}
	line := &e.Payload
	switch line.state {
	case L1Exclusive, L1Modified:
		l.send(&network.Msg{Op: network.OpDataToDir, Dst: m.Src, Addr: m.Addr, Data: cloneBytes(line.data), Requestor: l.node})
	case L1Shared:
	case L1Prv:
		panic("l1: TR_PRV for an already-PRV line")
	}
	l.traceState(m.Addr, line.state, L1Prv)
	line.state = L1Prv
	line.dirty = false
	line.base = cloneBytes(line.data)
	l.reportMDForPrv(m.Src, m.Addr, l.cache.Peek(m.Addr) != nil)
}

// reportMDForPrv ships and clears the PAM entry for a privatizing block,
// then allocates a fresh empty entry for the privatized episode (only when
// the line is L1-resident: an L2 copy has no PAM entry until promotion).
func (l *L1) reportMDForPrv(dir network.NodeID, blk memsys.Addr, inL1 bool) {
	mdR, mdW, sendMD, ok := l.policy.TakeEntry(blk)
	if ok && sendMD {
		l.stats.IncID(stats.IDFSMetadataMsgs)
		l.send(&network.Msg{Op: network.OpRepMD, Dst: dir, Addr: blk, MDRead: mdR, MDWrite: mdW, HasCopy: true, Requestor: l.node})
	} else {
		l.sendPhantomWithCopy(dir, blk, true)
	}
	if inL1 {
		l.policy.Allocate(blk, false)
	}
}

func (l *L1) sendPhantomWithCopy(dir network.NodeID, blk memsys.Addr, hasCopy bool) {
	l.stats.IncID(stats.IDFSPhantomMsgs)
	l.stats.IncID(stats.IDFSMetadataMsgs)
	l.send(&network.Msg{Op: network.OpMDPhantom, Dst: dir, Addr: blk, HasCopy: hasCopy, Requestor: l.node})
}

// onInvPrv terminates a privatized episode at this core (§V-C).
func (l *L1) onInvPrv(m *network.Msg) {
	e := l.peekAny(m.Addr)
	if e != nil && e.Payload.state == L1Prv {
		data := cloneBytes(e.Payload.data)
		base := cloneBytes(e.Payload.base)
		if tx, ok := l.mshrs[m.Addr]; ok {
			l.cache.Unpin(m.Addr)
			switch tx.state {
			case mshrWaitChk:
				// Our CHK is in flight; the directory answers it after the
				// merge as a converted demand request (§V-C) — which may be
				// a plain grant or, if the block is privatized again by
				// then, a Data_PRV. Convert the transaction accordingly.
				if tx.access.IsWrite() {
					tx.state = mshrWaitDataExcl
				} else {
					tx.state = mshrWaitData
				}
			case mshrWaitUpgrade:
				// Fig. 12 with the line already PRV: the UPG_Ack_PRV grant in
				// flight is stale; reissue when it lands.
				tx.reissue = true
			default:
				panic("l1: Inv_PRV with unexpected transaction on a PRV line")
			}
		}
		l.invalidateAny(m.Addr)
		if l.policy != nil {
			l.policy.Drop(m.Addr)
		}
		l.wb[m.Addr] = &wbEntry{data: data, prv: true}
		l.send(&network.Msg{Op: network.OpPrvWB, Dst: m.Src, Addr: m.Addr, Data: data, Base: base, Requestor: l.node})
		return
	}
	if wbe, ok := l.wb[m.Addr]; ok && wbe.prv {
		// Our eviction PrvWB is already in flight; the directory counts it.
		return
	}
	if tx, ok := l.mshrs[m.Addr]; ok {
		switch tx.state {
		case mshrWaitData, mshrWaitDataExcl:
			// §V-E fig. 11: a Data_PRV grant is in flight to us; respond with
			// a dataless control writeback and reissue once it lands.
			tx.reissue = true
			l.send(&network.Msg{Op: network.OpCtrlWB, Dst: m.Src, Addr: m.Addr, Requestor: l.node})
			return
		case mshrWaitUpgrade:
			// §V-E fig. 12: our UPG_Ack_PRV is in flight; our S data must be
			// written back (we hold a copy), then the grant is reissued.
			e := l.cache.Peek(m.Addr)
			if e == nil || e.Payload.state != L1Shared {
				panic("l1: Inv_PRV upgrade race without S line")
			}
			data := cloneBytes(e.Payload.data)
			l.cache.Unpin(m.Addr)
			l.cache.Invalidate(m.Addr)
			l.traceState(m.Addr, L1Shared, L1Invalid)
			if l.policy != nil {
				l.policy.Drop(m.Addr)
			}
			tx.reissue = true
			l.wb[m.Addr] = &wbEntry{data: data, prv: true}
			// The copy was never written after the S->PRV transition, so it
			// is its own base.
			l.send(&network.Msg{Op: network.OpPrvWB, Dst: m.Src, Addr: m.Addr, Data: data, Base: cloneBytes(data), Requestor: l.node})
			return
		case mshrWaitChk:
			panic("l1: CHK outstanding but line not PRV")
		}
	}
	// No copy and no transaction: dataless response.
	l.send(&network.Msg{Op: network.OpCtrlWB, Dst: m.Src, Addr: m.Addr, Requestor: l.node})
}

// leVal reads a little-endian value of len(b) <= 8 bytes. Full-word values —
// the overwhelmingly common access size — decode with a single load.
func leVal(b []byte) uint64 {
	if len(b) == 8 {
		return binary.LittleEndian.Uint64(b)
	}
	var v uint64
	for i := len(b) - 1; i >= 0; i-- {
		v = v<<8 | uint64(b[i])
	}
	return v
}

// putLEVal writes the low len(b) bytes of v little-endian into b: values
// truncate to the access width, so commit arithmetic wraps around.
func putLEVal(b []byte, v uint64) {
	if len(b) == 8 {
		binary.LittleEndian.PutUint64(b, v)
		return
	}
	for i := range b {
		b[i] = byte(v)
		v >>= 8
	}
}

func cloneBytes(b []byte) []byte {
	out := make([]byte, len(b))
	copy(out, b)
	return out
}
