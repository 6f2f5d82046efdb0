package cpu

import (
	"fscoherence/internal/coherence"
	"fscoherence/internal/stats"
)

// NoEvent is the NextEvent sentinel: the core has no self-driven wake-up and
// will only act again in response to an external event (a memory completion
// delivered through its L1).
const NoEvent = ^uint64(0)

// Core is a processor model driving one L1 controller.
type Core interface {
	// Tick advances the core one cycle.
	Tick(now uint64)
	// Finished reports whether the thread completed and all of the core's
	// operations retired.
	Finished() bool
	// NextEvent returns the earliest cycle > now at which the core might make
	// progress without external input, or NoEvent if it is blocked waiting on
	// its L1 (whose completions are covered by the L1's and the network's own
	// wake-up reports). A core that ran ahead on L1 hits reports the cycle
	// its held op issues at, the cycle the naive loop would issue it.
	// Returning an earlier cycle than necessary is safe (the engine just
	// ticks an idle round); later is a correctness bug.
	NextEvent(now uint64) uint64
	// SkipIdle accounts for n consecutive cycles the engine fast-forwarded
	// over: the core must apply exactly the per-cycle bookkeeping (stall
	// counters) its Tick would have performed in each skipped cycle, so
	// counter snapshots stay byte-identical to the naive engine. Stall
	// cycles a run-ahead already credited for its hits are not counted
	// again.
	SkipIdle(n uint64)
	// Stop terminates the core's thread coroutine; a thread parked
	// mid-operation unwinds cleanly. Must be called when a simulation ends
	// before its threads finish (deadlock, cycle guard, oracle failure).
	Stop()
}

// InOrder is the blocking in-order core of the paper's main configuration:
// one operation at a time, every memory operation blocks until it commits.
type InOrder struct {
	l1     *coherence.L1
	runner *threadRunner
	stats  *stats.Set

	exhausted bool // thread function returned

	busyUntil uint64
	waiting   bool // a memory access is outstanding
	retry     bool // access rejected by the L1; retry each cycle
	hold      bool // issue held at a sampling window boundary (drain)
	cur       Op
	haveOp    bool

	// slot is the core's single reusable Access (one operation outstanding
	// at a time), so the issue path performs no heap allocation.
	slot *accessSlot

	// ahead is the run-ahead state, built when SetLookahead first arms it,
	// so a core that never runs ahead costs one pointer.
	ahead *aheadSink
}

// NewInOrder builds an in-order core running fn.
func NewInOrder(id int, l1 *coherence.L1, fn ThreadFunc, st *stats.Set) *InOrder {
	c := &InOrder{l1: l1, runner: startThread(id, fn), stats: st}
	c.slot = newAccessSlot(c.finish)
	return c
}

// SetLookahead arms run-ahead on L1 hits (nil disarms it): every fetch then
// resumes the thread with aheadSink as its warm sink, committing hits and
// compute bursts inside the coroutine until an operation is neither or would
// issue at or after look's horizon. That operation is held as the fetched op
// and issues at the cycle the naive loop would issue it, which becomes the
// core's wake-up. The engine arms it only where nothing observes the order in
// which cores commit (see sim's advance).
func (c *InOrder) SetLookahead(look Lookahead) {
	if c.ahead == nil {
		if look == nil {
			return
		}
		// A zero-latency hit's Done fires at the next tick.
		c.ahead = &aheadSink{c: c, hit: max(c.l1.HitCycles(), 1)}
	}
	c.ahead.look = look
}

// finish completes the outstanding access, unblocking the thread.
func (c *InOrder) finish(v uint64, _ *accessSlot) {
	c.waiting = false
	c.runner.complete(v)
}

// Stop terminates the thread coroutine (idempotent).
func (c *InOrder) Stop() { c.runner.stop() }

// Finished reports thread completion.
func (c *InOrder) Finished() bool {
	return c.exhausted && !c.waiting && !c.haveOp
}

// Tick advances the core one cycle.
func (c *InOrder) Tick(now uint64) {
	if c.Finished() {
		return
	}
	if c.busyUntil > now {
		return // computing
	}
	if c.waiting {
		c.stats.IncID(stats.IDStallCycles)
		if c.retry {
			c.retry = c.l1.Submit(&c.slot.acc) == coherence.SubmitRetry
		}
		return
	}
	if c.hold {
		return // draining at a sampling window boundary: no new issues
	}
	if !c.haveOp {
		if !c.fetch(now) || c.busyUntil > now {
			return // thread done, or ran ahead: the held op issues at busyUntil
		}
	}
	op := c.cur
	c.haveOp = false
	c.stats.IncID(stats.IDOpsCommitted)
	switch op.Kind {
	case OpCompute:
		c.stats.AddID(stats.IDComputeCycles, op.Cycles)
		c.busyUntil = now + op.Cycles
		c.runner.complete(0)
	default:
		c.waiting = true
		c.retry = c.l1.Submit(c.slot.prepare(op)) == coherence.SubmitRetry
	}
}

// NextEvent reports the in-order core's wake-up: the end of the current
// compute burst or run-ahead stretch (the cycle its held op issues at), the
// next cycle when an operation is ready to execute, or NoEvent while a memory
// access is outstanding. A rejected access (retry) also reports NoEvent: the
// L1 rejection can only clear in response to an external completion, and the
// per-cycle retry has no architectural or counter side effects until then.
func (c *InOrder) NextEvent(now uint64) uint64 {
	if c.Finished() {
		return NoEvent
	}
	if c.busyUntil > now {
		return c.busyUntil
	}
	if c.waiting || c.hold {
		return NoEvent
	}
	return now + 1
}

// HoldIssue gates the issue of new operations: while held, the core still
// retries and completes its outstanding access (counting stalls as usual) but
// fetches nothing new. The sampling scheduler holds all cores to drain the
// machine at a window boundary.
func (c *InOrder) HoldIssue(v bool) { c.hold = v }

// Outstanding reports whether a memory access is in flight (the drain
// condition: a held core is quiesced once this is false).
func (c *InOrder) Outstanding() bool { return c.waiting }

// WarmRun executes up to budget of the thread's operations functionally,
// committing each through sink, which must perform the full architectural
// effect — caches, metadata, memory values, commit counters — with no timing.
// Compute bursts are passed through the sink like every other operation.
//
// The quantum runs inside the thread coroutine (the hot Ctx methods commit
// inline while warm mode is armed), so it costs one coroutine round trip
// total instead of one per operation. The operation that exhausts the budget
// is yielded back unexecuted and held as the core's fetched op; the next
// WarmRun — or the detailed engine's Tick — executes it, so warming can stop
// and resume at any operation boundary. Returns the number of operations
// committed and whether the thread is still alive.
func (c *InOrder) WarmRun(sink WarmSink, budget uint64) (uint64, bool) {
	if c.waiting {
		panic("cpu: WarmRun with an outstanding access (machine not drained)")
	}
	if c.Finished() || budget == 0 {
		return 0, !c.Finished()
	}
	var done uint64
	// A boundary-yielded op (fetched but not executed) commits first; its
	// result is delivered through the normal resume path.
	if c.haveOp {
		c.haveOp = false
		c.runner.complete(sink.ApplyOp(&c.cur))
		done++
		if done >= budget {
			return done, true
		}
	}
	if c.exhausted {
		return done, false
	}
	ctx := c.runner.ctx
	quantum := budget - done
	ctx.warmSink = sink
	ctx.warmBudget = quantum
	op, ok := c.runner.next()
	done += quantum - ctx.warmBudget
	ctx.warmSink = nil
	if !ok {
		c.exhausted = true
		return done, false
	}
	c.cur, c.haveOp = op, true
	return done, true
}

// SkipIdle applies the stall accounting of n skipped cycles. The engine only
// skips cycles in which Tick would have made no progress, so the naive loop
// would have counted one memory-stall cycle per skipped cycle iff an access
// was outstanding (a compute burst early-returns without counting). A
// run-ahead stretch credited its hits' stall cycles as it committed them, and
// waits out the rest like a compute burst.
func (c *InOrder) SkipIdle(n uint64) {
	if c.waiting {
		c.stats.AddID(stats.IDStallCycles, n)
	}
}

// fetch pulls the next operation from the thread at cycle now. Armed, it
// runs ahead first; if that moved the issue cycle past now, busyUntil holds
// it, and a thread that ended during the stretch is found exhausted by the
// fetch at busyUntil, the cycle the naive loop would find it.
func (c *InOrder) fetch(now uint64) bool {
	if c.exhausted {
		return false
	}
	ctx := c.runner.ctx
	a := c.ahead
	armed := a != nil && a.look != nil
	if armed {
		a.at, a.bound = now, a.look.Horizon(ctx.id, now)
		ctx.warmSink, ctx.warmBudget = a, ^uint64(0)
	}
	op, ok := c.runner.next()
	if armed {
		ctx.warmSink = nil
		c.busyUntil = a.at
	}
	if !ok {
		c.exhausted = c.busyUntil <= now
		return false
	}
	c.cur = op
	c.haveOp = true
	return true
}
