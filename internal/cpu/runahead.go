package cpu

import (
	"fscoherence/internal/coherence"
	"fscoherence/internal/memsys"
	"fscoherence/internal/stats"
)

// Lookahead bounds an in-order core's run-ahead (InOrder.SetLookahead).
// Horizon, asked inside the core's tick at global cycle now — after every
// directory slice and L1 ticked that cycle — returns the earliest cycle at
// which any message could be delivered to the core's L1. Until then nothing
// outside the core can change what its L1 holds.
type Lookahead interface {
	Horizon(core int, now uint64) uint64
}

// aheadSink is the in-order core's run-ahead, armed as the thread's warm
// sink while the core fetches (see InOrder.SetLookahead). Each operation
// that is a pure L1 hit (CommitHit) or a compute burst commits inline, at
// the cycle at which the naive loop would issue it, with the counters that
// loop would count; at then advances by the operation's latency. The first
// operation that is anything else, or that would issue at or after bound,
// leaves run-ahead and is yielded to the core unexecuted; the core issues it
// at that cycle. A hit's commit cycle lies below bound, so no message can
// have reached the L1 since the core's tick, and every L1 state it reads is
// the state the naive loop would read at that cycle.
type aheadSink struct {
	c     *InOrder
	look  Lookahead // nil: disarmed
	at    uint64    // cycle at which the thread's next operation issues
	bound uint64    // Lookahead.Horizon at the start of this run-ahead
	hit   uint64    // cycles from a hit's issue to the next issue
	acc   coherence.Access
}

// commit tries the access as an L1 hit at r.at; on success it retires the
// operation as the naive loop would — one op, and a stall cycle for every
// cycle but the last of the hit latency. The access is filled field by field:
// a composite literal is copied in wider loads than its stores, which stalls
// store forwarding.
func (r *aheadSink) commit(kind coherence.AccessKind, addr memsys.Addr, size int, v uint64) (uint64, bool) {
	if r.at >= r.bound {
		return 0, false
	}
	a := &r.acc
	a.Kind, a.Addr, a.Size, a.Value = kind, addr, size, v
	v, ok := r.c.l1.CommitHit(a, r.at)
	if ok {
		r.c.stats.IncID(stats.IDOpsCommitted)
		r.c.stats.AddID(stats.IDStallCycles, r.hit-1)
		r.at += r.hit
	}
	return v, ok
}

// yield leaves run-ahead and hands op to the core through the normal
// handshake, returning its result once the core completed it.
func (r *aheadSink) yield(op Op) uint64 {
	ctx := r.c.runner.ctx
	ctx.warmSink = nil
	return ctx.do(op)
}

func (r *aheadSink) Load(addr memsys.Addr, size int) uint64 {
	if v, ok := r.commit(coherence.AccessLoad, addr, size, 0); ok {
		return v
	}
	return r.yield(Op{Kind: OpLoad, Addr: addr, Size: size})
}

func (r *aheadSink) Store(addr memsys.Addr, size int, v uint64) {
	if _, ok := r.commit(coherence.AccessStore, addr, size, v); ok {
		return
	}
	r.yield(Op{Kind: OpStore, Addr: addr, Size: size, Value: v, Async: true})
}

// AtomicAdd ends run-ahead: atomics issue through the core.
func (r *aheadSink) AtomicAdd(addr memsys.Addr, size int, delta uint64) uint64 {
	return r.yield(Op{Kind: OpAtomic, Addr: addr, Size: size, Value: delta})
}

func (r *aheadSink) Compute(n uint64) {
	if r.at >= r.bound {
		r.yield(Op{Kind: OpCompute, Cycles: n})
		return
	}
	r.c.stats.IncID(stats.IDOpsCommitted)
	r.c.stats.AddID(stats.IDComputeCycles, n)
	r.at += n
}

// ApplyOp runs ahead on an asynchronous load; every other kind without a
// typed method — StoreSync, generic atomics, reductions, prefetches — ends
// run-ahead.
func (r *aheadSink) ApplyOp(op *Op) uint64 {
	if op.Kind == OpLoad {
		if v, ok := r.commit(coherence.AccessLoad, op.Addr, op.Size, 0); ok {
			return v
		}
	}
	return r.yield(*op)
}
