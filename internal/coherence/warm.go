package coherence

import (
	"fmt"

	"fscoherence/internal/memsys"
	"fscoherence/internal/stats"
)

// Warmer is the functional-warming fast path of the interval-sampling engine
// (internal/sample): it applies memory operations to the full architectural
// state — L1 caches, directory/LLC, PAM/SAM metadata and memory values — as a
// sequence of synchronous whole-protocol transactions, with no network
// messages, no timing and no transient states. Because every transaction
// completes before the next access starts, the machine is in a quiescent
// stable state after every Access call, which is exactly the state a detailed
// window resumes from.
//
// Fidelity contract:
//
//   - Architectural state (cache contents, coherence states, sharer sets,
//     PAM/SAM metadata, block values) evolves exactly as the detailed
//     protocol would under a quiescent, race-free execution of the same
//     access sequence. The transient-race paths of the detailed protocol
//     (§V-E figs. 11-12, phantom-after-writeback, deferred interventions)
//     cannot arise because warming never has two transactions in flight.
//   - Functional counters (hits, misses, fills, evictions, commits,
//     privatizations, terminations, metadata messages, memory traffic)
//     accrue with the same increments the detailed handlers perform, so
//     functionally-accrued statistics remain exact across warming windows.
//   - Timing counters (cycles, stall cycles, network traffic) do not accrue;
//     the sampling engine estimates them from detailed windows. Episode
//     lengths (fs.prv_cycles) accrue in compressed warming time and are
//     approximate under sampling.
//   - Every access commits through the detailed L1's own hit check and
//     commit path, so values, PAM bits and commit counters come from the
//     same code as in a timed window, and each commit reaches the L1's
//     commit observer stamped with the warmer's clock: under Verify the
//     golden-memory oracle checks warming. The event tracer, and the
//     forensics recorder that reads it, sees no warming transaction.
//
// The warmer requires the two-level inclusive configuration (no private L2,
// no non-inclusive LLC); the sampling front-end rejects other machines.
type Warmer struct {
	params Params
	mode   Protocol
	l1s    []*L1
	dirs   []*Dir
	mem    *memsys.Memory
	now    uint64
	acc    Access // the access being warmed

	// pool recycles block-sized byte buffers (line data, PRV base snapshots,
	// termination merge buffers) so steady-state warming allocates nothing.
	pool [][]byte
}

// NewWarmer builds a warmer over the system's controllers. It panics if the
// machine shape is outside the warmable configuration.
func NewWarmer(p Params, mode Protocol, l1s []*L1, dirs []*Dir, mem *memsys.Memory) *Warmer {
	for _, l := range l1s {
		if l.l2 != nil {
			panic("coherence: warmer requires a machine without private L2s")
		}
	}
	for _, d := range dirs {
		if d.dataDir != nil {
			panic("coherence: warmer requires an inclusive LLC")
		}
	}
	return &Warmer{params: p, mode: mode, l1s: l1s, dirs: dirs, mem: mem}
}

// SetNow updates the warmer's notion of simulated time (the sampling engine
// advances it once per warming round; it stamps privatization episodes).
func (w *Warmer) SetNow(now uint64) { w.now = now }

func (w *Warmer) get() []byte {
	if n := len(w.pool); n > 0 {
		b := w.pool[n-1]
		w.pool = w.pool[:n-1]
		return b
	}
	return make([]byte, w.params.BlockSize)
}

func (w *Warmer) put(b []byte) {
	if cap(b) >= w.params.BlockSize {
		w.pool = append(w.pool, b[:w.params.BlockSize])
	}
}

func (w *Warmer) home(blk memsys.Addr) *Dir {
	return w.dirs[w.params.HomeSlice(uint64(blk))]
}

// Access applies one memory operation functionally and returns the value
// read (the pre-RMW value for an atomic, 0 for a store, reduction or
// prefetch). val and rmw are the Value and RMW of a coherence Access. Hits and
// the commit that ends each transaction take the detailed L1's own
// permission check and commit path (commitAt) at the warmer's clock, so they
// reach the commit observer too.
func (w *Warmer) Access(core int, kind AccessKind, addr memsys.Addr, size int, val uint64, rmw func(uint64) uint64) uint64 {
	// Field stores, not a composite literal: the literal is built on the
	// stack and copied in wider loads than its stores, which stalls store
	// forwarding on every warmed access.
	a := &w.acc
	a.Kind, a.Addr, a.Size, a.Value, a.RMW = kind, addr, size, val, rmw
	l1 := w.l1s[core]
	st := l1.stats
	blk := addr.BlockAlign(w.params.BlockSize)
	write := a.IsWrite()
	toff, tlen := addr.BlockOffset(w.params.BlockSize), size
	if kind == AccessPrefetch {
		toff, tlen = 0, 0
	}

	// counted mirrors Msg.Counted: the L1-side access counters and the
	// policy's fetch-count update fire once per architectural access, no
	// matter how many times a conflict-triggered termination makes the
	// request retry. A retry always finds the block gone from the L1, so
	// only a first attempt can hit.
	counted := false
	for {
		e := l1.cache.Lookup(blk)
		if e != nil {
			if v, ok := l1.commitAt(a, blk, &e.Payload, w.now, w.now); ok {
				st.IncID(stats.IDL1DAccesses)
				if kind != AccessPrefetch {
					st.IncID(stats.IDL1DHits)
				}
				return v
			}
		}
		if !counted {
			st.IncID(stats.IDL1DAccesses)
			st.IncID(stats.IDL1DMisses)
		}
		var granted bool
		switch {
		case e == nil:
			granted = w.demand(l1, core, kind, blk, toff, tlen, write, counted)
		case e.Payload.state == L1Shared:
			granted = w.upgrade(l1, core, blk, toff, tlen, counted)
		case e.Payload.state == L1Prv:
			if !counted {
				st.IncID(stats.IDFSChkRequests)
			}
			granted = w.chk(l1, core, blk, toff, tlen, write)
		default:
			panic(fmt.Sprintf("warm: permission miss in state %v", e.Payload.state))
		}
		if granted {
			v, ok := l1.commitAt(a, blk, &l1.cache.Peek(blk).Payload, w.now, w.now)
			if !ok {
				panic(fmt.Sprintf("warm: %v granted without permission", blk))
			}
			return v
		}
		counted = true
	}
}

// lookup brings blk into the directory slice, mirroring handleRequest's
// residency path: LLC hit, or victim eviction plus a memory fill.
func (w *Warmer) lookup(d *Dir, blk memsys.Addr) *memsys.Entry[dirLine] {
	d.stats.IncID(stats.IDLLCAccesses)
	if e := d.llc.Lookup(blk); e != nil {
		d.stats.IncID(stats.IDLLCHits)
		return e
	}
	d.stats.IncID(stats.IDLLCMisses)
	v := d.llc.Victim(blk)
	if v == nil {
		panic("warm: all LLC ways pinned at quiescence")
	}
	if v.Valid {
		w.evictDirLine(d, v)
	}
	e, _, displaced := d.llc.Insert(blk)
	if displaced {
		panic("warm: insert displaced a line despite victim pre-check")
	}
	data := w.get()
	copy(data, w.mem.BlockSlice(blk))
	e.Payload = dirLine{dirHot: dirHot{state: DirIdle, hasData: true}, data: data}
	d.stats.IncID(stats.IDMemReads)
	d.stats.IncID(stats.IDLLCFills)
	return e
}

// evictDirLine removes an LLC victim, recalling or terminating as inclusion
// requires (the synchronous startEvict).
func (w *Warmer) evictDirLine(d *Dir, v *memsys.Entry[dirLine]) {
	line := &v.Payload
	switch line.state {
	case DirIdle:
		w.dropLine(d, v)
	case DirShared:
		// Recall: the sharer set may contain stale (silently dropped) cores.
		line.sharers.ForEach(func(c int) {
			cl := w.l1s[c]
			ce := cl.cache.Peek(v.Tag)
			if ce == nil {
				return // stale sharer; dataless InvAck in the detailed path
			}
			if ce.Payload.state != L1Shared {
				panic("warm: recall of a non-S sharer")
			}
			w.put(ce.Payload.data)
			w.put(ce.Payload.base)
			cl.cache.Invalidate(v.Tag)
			if cl.policy != nil {
				cl.policy.TakeEntry(v.Tag) // cleared, not reported (no REQ_MD)
			}
		})
		w.dropLine(d, v)
	case DirOwned:
		cl := w.l1s[line.owner]
		ce := cl.cache.Peek(v.Tag)
		if ce == nil || (ce.Payload.state != L1Exclusive && ce.Payload.state != L1Modified) {
			panic("warm: owner recall without an E/M copy")
		}
		if ce.Payload.dirty {
			copy(line.data, ce.Payload.data)
			line.dirty = true
		}
		w.put(ce.Payload.data)
		w.put(ce.Payload.base)
		cl.cache.Invalidate(v.Tag)
		if cl.policy != nil {
			cl.policy.TakeEntry(v.Tag)
		}
		w.dropLine(d, v)
	case DirPrv:
		w.terminate(d, v, "evict")
		w.dropLine(d, v)
	}
}

// dropLine mirrors the detailed dropLine: dirty writeback, metadata drop,
// LLC invalidation.
func (w *Warmer) dropLine(d *Dir, e *memsys.Entry[dirLine]) {
	line := &e.Payload
	if line.dirty && line.hasData {
		copy(w.mem.BlockSlice(e.Tag), line.data)
		d.stats.IncID(stats.IDMemWrites)
	}
	if d.policy != nil {
		d.policy.OnDirEviction(e.Tag)
	}
	d.stats.IncID(stats.IDLLCEvicts)
	w.put(line.data)
	d.llc.Invalidate(e.Tag)
}

// fill installs a block into an L1, evicting a victim (the synchronous
// evictFromHierarchy, with the directory absorbing writebacks immediately).
func (w *Warmer) fill(l1 *L1, blk memsys.Addr, data []byte, st L1State, dirty, sendMD bool) *memsys.Entry[l1Line] {
	e, victim, evicted := l1.cache.Insert(blk)
	if evicted {
		w.evictL1Line(l1, &victim)
	}
	buf := w.get()
	copy(buf, data)
	e.Payload = l1Line{state: st, dirty: dirty, data: buf}
	l1.stats.IncID(stats.IDL1DFills)
	if l1.policy != nil {
		l1.policy.Allocate(blk, sendMD)
	}
	return e
}

// evictL1Line handles an L1 victim: silent drop, writeback or privatized
// writeback, with the home slice absorbing the result synchronously.
func (w *Warmer) evictL1Line(l1 *L1, ev *memsys.Entry[l1Line]) {
	blk := ev.Tag
	line := &ev.Payload
	l1.stats.IncID(stats.IDL1DEvicts)
	d := w.home(blk)
	de := d.llc.Peek(blk)
	if de == nil {
		panic(fmt.Sprintf("warm: L1 eviction of %v with no LLC entry (inclusion)", blk))
	}
	dline := &de.Payload
	switch line.state {
	case L1Shared:
		// Silent clean eviction; the stale sharer entry remains, exactly as
		// in the detailed protocol.
		w.shipEvictionMD(l1, d, blk)
	case L1Exclusive:
		// Clean writeback keeps the owner field exact.
		if dline.state != DirOwned || dline.owner != l1.core {
			panic("warm: E eviction but directory disagrees on ownership")
		}
		dline.state = DirIdle
		w.shipEvictionMD(l1, d, blk)
	case L1Modified:
		if dline.state != DirOwned || dline.owner != l1.core {
			panic("warm: M eviction but directory disagrees on ownership")
		}
		l1.stats.IncID(stats.IDL1DWbDirty)
		copy(dline.data, line.data)
		dline.dirty = true
		dline.state = DirIdle
		w.shipEvictionMD(l1, d, blk)
	case L1Prv:
		// §V-D: merge the privatized copy and leave the episode.
		l1.stats.IncID(stats.IDL1DWbDirty)
		d.mergePrvCopy(dline.data, line.data, line.base, l1.core, blk)
		d.tracePrvMerge(blk, l1.core)
		dline.dirty = true
		d.policy.OnPrvEviction(blk, l1.core)
		dline.sharers.Remove(l1.core)
		if l1.policy != nil {
			l1.policy.Drop(blk)
		}
	default:
		panic("warm: evicting invalid L1 line")
	}
	w.put(line.data)
	w.put(line.base)
}

// shipEvictionMD mirrors sendEvictionMD + the directory's onRepMD: the PAM
// entry is always cleared; it reaches the SAM only if SEND_MD was set.
func (w *Warmer) shipEvictionMD(l1 *L1, d *Dir, blk memsys.Addr) {
	if l1.policy == nil {
		return
	}
	mdR, mdW, sendMD, ok := l1.policy.TakeEntry(blk)
	if ok && sendMD {
		l1.stats.IncID(stats.IDFSMetadataMsgs)
		d.policy.OnRepMD(blk, l1.core, mdR, mdW)
	}
}

// invalidateSharer mirrors Inv handling at an L1 holding (at most) an S copy,
// plus the directory's receipt of the REP_MD / phantom response.
func (w *Warmer) invalidateSharer(d *Dir, c int, blk memsys.Addr, reqMD bool) {
	cl := w.l1s[c]
	ce := cl.cache.Peek(blk)
	if ce != nil {
		if ce.Payload.state != L1Shared {
			panic("warm: invalidation of a non-S sharer")
		}
		w.put(ce.Payload.data)
		w.put(ce.Payload.base)
		cl.cache.Invalidate(blk)
		if cl.policy != nil {
			mdR, mdW, _, ok := cl.policy.TakeEntry(blk)
			if reqMD {
				if ok {
					cl.stats.IncID(stats.IDFSMetadataMsgs)
					d.policy.OnRepMD(blk, c, mdR, mdW)
				} else {
					w.phantom(cl, d, blk)
				}
			}
		}
		return
	}
	// Stale invalidation after a silent eviction.
	if reqMD {
		w.phantom(cl, d, blk)
	}
}

// phantom mirrors sendPhantom + onMDPhantom.
func (w *Warmer) phantom(l1 *L1, d *Dir, blk memsys.Addr) {
	l1.stats.IncID(stats.IDFSPhantomMsgs)
	l1.stats.IncID(stats.IDFSMetadataMsgs)
	d.policy.OnMDPhantom(blk)
}

// demand serves a GetS/GetX for a block absent from the requesting L1. It
// returns false when a conflict-triggered termination converted the request
// into a retry (the caller loops).
func (w *Warmer) demand(l1 *L1, core int, kind AccessKind, blk memsys.Addr, toff, tlen int, write, counted bool) bool {
	d := w.home(blk)
	e := w.lookup(d, blk)
	line := &e.Payload

	if line.state == DirPrv {
		// servePrvDemand: join the episode if the bytes do not conflict.
		if d.policy.CheckBytes(blk, core, toff, tlen, write) == NoConflict {
			d.policy.RecordBytes(blk, core, toff, tlen, write)
			line.sharers.Add(core)
			fe := w.fill(l1, blk, line.data, L1Prv, false, false)
			base := w.get()
			copy(base, fe.Payload.data)
			fe.Payload.base = base
			if l1.policy != nil && kind != AccessPrefetch {
				l1.policy.OnAccess(blk, toff, tlen, write)
			}
			return true
		}
		d.policy.MarkTrueSharing(blk)
		w.terminate(d, e, "conflict")
		return false
	}

	d.stats.IncID(stats.IDDirFetchReq)
	requestMD, privatize := false, false
	if d.policy != nil {
		if counted {
			requestMD = d.policy.WantMetadata(blk)
		} else {
			requestMD, privatize = d.policy.OnFetchRequest(blk, core)
		}
	}
	if privatize && w.mode == FSLite && (line.state == DirShared || line.state == DirOwned) {
		return w.prvInit(d, e, l1, core, kind, blk, toff, tlen, write, false)
	}

	if !write && kind != AccessAtomicRMW {
		// GetS.
		switch line.state {
		case DirIdle:
			w.fill(l1, blk, line.data, L1Exclusive, false, requestMD)
			line.state = DirOwned
			line.owner = core
		case DirShared:
			w.fill(l1, blk, line.data, L1Shared, false, requestMD)
			line.sharers.Add(core)
		case DirOwned:
			w.intervene(d, e, core, requestMD, false)
			w.fill(l1, blk, line.data, L1Shared, false, requestMD)
			line.sharers.Add(core)
		}
		return true
	}

	// GetX.
	switch line.state {
	case DirIdle:
		w.fill(l1, blk, line.data, L1Modified, true, requestMD)
		line.state = DirOwned
		line.owner = core
	case DirShared:
		w.invalidateOthers(d, e, core, requestMD)
		w.fill(l1, blk, line.data, L1Modified, true, requestMD)
		line.state = DirOwned
		line.owner = core
		line.sharers = coreSet{}
	case DirOwned:
		w.intervene(d, e, core, requestMD, true)
		w.fill(l1, blk, line.data, L1Modified, true, requestMD)
		line.state = DirOwned
		line.owner = core
		line.sharers = coreSet{}
	}
	return true
}

// intervene mirrors a Fwd_GetS/Fwd_GetX round trip with the current owner:
// the owner's data refreshes the LLC copy; for a read intervention the owner
// downgrades to S (and the sharer set is rebuilt), for a write intervention
// the owner invalidates. The caller installs the new owner / sharer.
func (w *Warmer) intervene(d *Dir, e *memsys.Entry[dirLine], core int, requestMD, excl bool) {
	line := &e.Payload
	oldOwner := line.owner
	d.stats.IncID(stats.IDDirInterv)
	if d.policy != nil {
		d.policy.OnInvalidationsSent(e.Tag, 1)
		if requestMD {
			d.policy.OnMetadataRequested(e.Tag, 1)
		}
	}
	ol := w.l1s[oldOwner]
	oe := ol.cache.Peek(e.Tag)
	if oe == nil || (oe.Payload.state != L1Exclusive && oe.Payload.state != L1Modified) {
		panic("warm: intervention but the owner holds no E/M copy")
	}
	copy(line.data, oe.Payload.data)
	line.dirty = true
	if excl {
		// Fwd_GetX: ownership transfer; the old owner invalidates and ships
		// its PAM entry.
		if ol.policy != nil {
			mdR, mdW, _, ok := ol.policy.TakeEntry(e.Tag)
			if requestMD {
				if ok {
					ol.stats.IncID(stats.IDFSMetadataMsgs)
					d.policy.OnRepMD(e.Tag, oldOwner, mdR, mdW)
				} else {
					w.phantom(ol, d, e.Tag)
				}
			}
		}
		w.put(oe.Payload.data)
		w.put(oe.Payload.base)
		ol.cache.Invalidate(e.Tag)
		return
	}
	// Fwd_GetS: the owner keeps an S copy, reports its PAM entry without
	// clearing it, and re-arms SEND_MD per the REQ_MD bit.
	oe.Payload.state = L1Shared
	oe.Payload.dirty = false
	if ol.policy != nil {
		if requestMD {
			if mdR, mdW, ok := ol.policy.PeekEntry(e.Tag); ok {
				ol.stats.IncID(stats.IDFSMetadataMsgs)
				d.policy.OnRepMD(e.Tag, oldOwner, mdR, mdW)
			} else {
				w.phantom(ol, d, e.Tag)
			}
		}
		ol.policy.SetSendMD(e.Tag, requestMD)
	}
	line.state = DirShared
	line.sharers = coreSet{}
	line.sharers.Add(oldOwner)
}

// invalidateOthers invalidates every S sharer except core, with metadata
// collection, mirroring the shared-state GetX/Upgrade path.
func (w *Warmer) invalidateOthers(d *Dir, e *memsys.Entry[dirLine], core int, requestMD bool) {
	line := &e.Payload
	others := line.sharers
	others.Remove(core)
	n := others.Count()
	if n == 0 {
		return
	}
	others.ForEach(func(c int) {
		d.stats.IncID(stats.IDDirInval)
	})
	if d.policy != nil {
		d.policy.OnInvalidationsSent(e.Tag, n)
		if requestMD {
			d.policy.OnMetadataRequested(e.Tag, n)
		}
	}
	others.ForEach(func(c int) {
		w.invalidateSharer(d, c, e.Tag, requestMD && d.policy != nil)
	})
}

// upgrade serves an Upgrade for an S line held by core. It returns false when
// privatization aborted and terminated (the caller retries from scratch).
func (w *Warmer) upgrade(l1 *L1, core int, blk memsys.Addr, toff, tlen int, counted bool) bool {
	d := w.home(blk)
	e := w.lookup(d, blk)
	line := &e.Payload
	if line.state != DirShared || !line.sharers.Has(core) {
		panic("warm: upgrade from a core the directory does not see as a sharer")
	}
	d.stats.IncID(stats.IDDirFetchReq)
	requestMD, privatize := false, false
	if d.policy != nil {
		if counted {
			requestMD = d.policy.WantMetadata(blk)
		} else {
			requestMD, privatize = d.policy.OnFetchRequest(blk, core)
		}
	}
	if privatize && w.mode == FSLite {
		return w.prvInit(d, e, l1, core, AccessStore, blk, toff, tlen, true, true)
	}
	w.invalidateOthers(d, e, core, requestMD)
	line.state = DirOwned
	line.owner = core
	line.sharers = coreSet{}
	le := l1.cache.Peek(blk)
	le.Payload.state = L1Modified
	le.Payload.dirty = true
	return true
}

// chk serves a byte-grain permission check for a PRV line (§V-B). It returns
// false when the check conflicted: the episode terminated and the line is
// gone from the requesting L1 (the caller retries as a demand miss).
func (w *Warmer) chk(l1 *L1, core int, blk memsys.Addr, toff, tlen int, write bool) bool {
	d := w.home(blk)
	d.stats.IncID(stats.IDLLCAccesses)
	e := d.llc.Lookup(blk)
	if e == nil || e.Payload.state != DirPrv || !e.Payload.sharers.Has(core) {
		panic("warm: CHK but the directory does not see a PRV episode with this sharer")
	}
	d.stats.IncID(stats.IDLLCHits)
	if d.policy.CheckBytes(blk, core, toff, tlen, write) == NoConflict {
		d.policy.RecordBytes(blk, core, toff, tlen, write)
		l1.policy.OnAccess(blk, toff, tlen, write)
		return true
	}
	d.policy.MarkTrueSharing(blk)
	w.terminate(d, e, "conflict")
	return false
}

// prvInit runs the privatization initiation sweep (§V-A) synchronously:
// TR_PRV to every sharer (or the owner), metadata collection, then the
// commit-or-abort decision. It returns true when the triggering access was
// granted (the requestor holds a PRV copy with its bytes recorded).
func (w *Warmer) prvInit(d *Dir, e *memsys.Entry[dirLine], l1 *L1, core int, kind AccessKind, blk memsys.Addr, toff, tlen int, write, isUpgrade bool) bool {
	line := &e.Payload
	var targets coreSet
	switch line.state {
	case DirShared:
		targets = line.sharers
	case DirOwned:
		targets.Add(line.owner)
	}
	d.policy.OnMetadataRequested(blk, targets.Count())

	var prvJoin coreSet
	targets.ForEach(func(c int) {
		cl := w.l1s[c]
		ce := cl.cache.Peek(blk)
		if ce == nil {
			// Copy silently dropped: dataless phantom, no PRV copy kept.
			w.phantom(cl, d, blk)
			return
		}
		cline := &ce.Payload
		if cline.state == L1Exclusive || cline.state == L1Modified {
			copy(line.data, cline.data) // DataToDir refresh
			line.dirty = true
		}
		cline.state = L1Prv
		cline.dirty = false
		if cline.base == nil {
			cline.base = w.get()
		}
		copy(cline.base, cline.data)
		mdR, mdW, sendMD, ok := cl.policy.TakeEntry(blk)
		if ok && sendMD {
			cl.stats.IncID(stats.IDFSMetadataMsgs)
			d.policy.OnRepMD(blk, c, mdR, mdW)
		} else {
			w.phantom(cl, d, blk)
		}
		cl.policy.Allocate(blk, false)
		prvJoin.Add(c)
	})

	// The commit-or-abort decision of maybeFinishPrvInit.
	conflict := d.policy.TrueSharing(blk)
	if !conflict && d.policy.CheckBytes(blk, core, toff, tlen, write) != NoConflict {
		d.policy.MarkTrueSharing(blk)
		conflict = true
	}
	if conflict {
		d.stats.IncID(stats.IDFSPrivAborted)
		if prvJoin.Empty() {
			line.state = DirIdle
			line.sharers = coreSet{}
			return false
		}
		line.state = DirPrv
		line.prvSince = w.now
		line.sharers = prvJoin
		w.terminate(d, e, "abort")
		return false
	}

	d.stats.IncID(stats.IDFSPrivatized)
	d.policy.OnPrivatize(blk)
	line.state = DirPrv
	line.prvSince = w.now
	d.tracePrvBegin(blk, core)
	line.sharers = prvJoin
	if isUpgrade {
		if !line.sharers.Has(core) {
			panic("warm: privatizing upgrader lost its copy")
		}
		// UPG_Ack_PRV: the TR_PRV above already moved the line to PRV; the
		// grant's conflict check covered the touched bytes.
		d.policy.RecordBytes(blk, core, toff, tlen, write)
		l1.policy.OnAccess(blk, toff, tlen, true)
		return true
	}
	d.policy.RecordBytes(blk, core, toff, tlen, write)
	line.sharers.Add(core)
	fe := w.fill(l1, blk, line.data, L1Prv, false, false)
	base := w.get()
	copy(base, fe.Payload.data)
	fe.Payload.base = base
	if l1.policy != nil && kind != AccessPrefetch {
		l1.policy.OnAccess(blk, toff, tlen, write)
	}
	return true
}

// terminate runs a privatization termination (§V-C) synchronously: every PRV
// sharer's copy is byte-merged into the LLC block and invalidated, metadata
// is cleared, and the line returns to DirIdle.
func (w *Warmer) terminate(d *Dir, e *memsys.Entry[dirLine], reason string) {
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
	mergeBuf := w.get()
	copy(mergeBuf, line.data)
	line.sharers.ForEach(func(c int) {
		cl := w.l1s[c]
		ce := cl.cache.Peek(e.Tag)
		if ce == nil || ce.Payload.state != L1Prv {
			panic("warm: termination but a recorded PRV sharer has no PRV copy")
		}
		d.mergePrvCopy(mergeBuf, ce.Payload.data, ce.Payload.base, c, e.Tag)
		d.tracePrvMerge(e.Tag, c)
		if cl.policy != nil {
			cl.policy.Drop(e.Tag)
		}
		w.put(ce.Payload.data)
		w.put(ce.Payload.base)
		cl.cache.Invalidate(e.Tag)
	})
	w.put(line.data)
	line.data = mergeBuf
	line.dirty = true
	d.policy.OnTerminate(e.Tag)
	if w.now > line.prvSince {
		d.stats.AddID(stats.IDFSPrvCycles, w.now-line.prvSince)
	}
	line.state = DirIdle
	line.sharers = coreSet{}
}

// DrainForcedTerminations performs every forced termination the policies have
// queued (SAM-entry evictions, §V-C) and returns how many episodes ended. The
// sampling engine calls it once per warming round, standing in for the
// directory Tick's forced-termination drain.
func (w *Warmer) DrainForcedTerminations() int {
	n := 0
	for _, d := range w.dirs {
		if d.policy != nil {
			d.forced = append(d.forced, d.policy.TakeForcedTerminations()...)
		}
		if len(d.forced) == 0 {
			continue
		}
		for _, a := range d.forced {
			e := d.llc.Peek(a)
			if e == nil || e.Payload.state != DirPrv {
				continue // already terminated
			}
			w.terminate(d, e, "forced")
			n++
		}
		d.forced = d.forced[:0]
	}
	return n
}
