package sim

import (
	"fscoherence/internal/coherence"
	"fscoherence/internal/cpu"
	"fscoherence/internal/network"
	"fscoherence/internal/wakeq"
)

// queue is the skip engine's wake-up queue. It holds one key per directory
// slice and one per L1/core pair (a core and its L1 share index i): the
// earliest cycle at which the component has work. That is the least of its
// cached NextEvent, the front of its inbox and, for a pair, its core's
// NextEvent. A component's own wake-ups move only when it ticks, so stepDue
// sets its key after each tick; the network reports every send (Wake),
// which lowers the destination's key to the message's arrival. So a step
// pays for the components that are due, not for the machine.
type queue struct {
	slices, pairs wakeq.Tree
	node          []int32 // network node -> pair i, or slice j as ^j
	due           []int32 // scratch: the components due in this step
}

// newQueue builds the queue for the machine p, every key empty.
func newQueue(p coherence.Params) queue {
	q := queue{
		slices: wakeq.New(p.Slices),
		pairs:  wakeq.New(p.Cores),
		node:   make([]int32, p.Nodes()),
		due:    make([]int32, 0, max(p.Cores, p.Slices)),
	}
	for i := 0; i < p.Cores; i++ {
		q.node[p.L1Node(i)] = int32(i)
	}
	for j := 0; j < p.Slices; j++ {
		q.node[p.SliceNode(j)] = ^int32(j)
	}
	return q
}

// Wake implements network.Waker: a message for dst becomes deliverable at
// cycle at.
func (q *queue) Wake(dst network.NodeID, at uint64) {
	if c := q.node[dst]; c >= 0 {
		q.pairs.Lower(int(c), at)
	} else {
		q.slices.Lower(int(^c), at)
	}
}

// next is the earliest key: the machine's next wake-up (values at or below
// the last stepped cycle mean leftover same-cycle work).
func (q *queue) next() uint64 { return min(q.slices.Min(), q.pairs.Min()) }

// wakeAll marks every component due and settles the per-core bookkeeping
// a step keeps: stall cycles are accounted through the current cycle, and
// finished's count is taken afresh. Work created outside a step — issue held
// or released, a warming window — does not show in the queue, so each
// sequential loop entry starts from here; the first step ticks the whole
// machine and reseeds every key.
func (s *System) wakeAll() {
	s.wake.slices.SetAll(0)
	s.wake.pairs.SetAll(0)
	for i := range s.stallAt {
		s.stallAt[i] = s.cycle
	}
	s.countFinished()
}

// Horizon implements cpu.Lookahead: the bound of core i's run-ahead at cycle
// c, the earliest cycle at which a message could reach its L1. It is asked
// inside stepDue's core phase, after every due slice and L1 ticked. A
// message in flight to the L1 arrives no earlier than its inbox's front. Any
// other message is yet to be sent, and a send arrives no sooner than
// D = MinDeliveryLatency later. A slice or an L1 sends in reaction to a
// delivery (no earlier than the network's NextArrival) or on a slice's own
// wake-up (the slice keys' minimum, which also holds the slices' arrivals);
// a core's op makes its L1 send to a slice only, at c or later, arriving at
// c+D or later. What then comes to this L1 takes one more hop. That second
// part is the same for every core of the cycle — a send made during c
// arrives at c+D or later — so it is computed once per cycle, from the two
// roots, without a scan.
func (s *System) Horizon(i int, c uint64) uint64 {
	if s.horizonAt != c {
		d := s.net.MinDeliveryLatency()
		h := min(s.net.NextArrival(), c+d, s.wake.slices.Min())
		s.horizonAt, s.horizon = c, h+d
	}
	b := min(s.net.NextArrivalFor(s.l1s[i].Node()), s.horizon)
	if s.horizonHook != nil {
		s.horizonHook(i, c, b)
	}
	return b
}

// setLookahead arms (look = s) or disarms (nil) every in-order core's
// run-ahead.
func (s *System) setLookahead(look cpu.Lookahead) {
	for _, c := range s.cores {
		if io, ok := c.(*cpu.InOrder); ok {
			io.SetLookahead(look)
		}
	}
}

// stepDue runs one cycle in the naive engine's tick order — directory slices,
// then L1s, then cores, each by ascending index — ticking only the
// components the queue holds due at c.
//
// A component whose key lies beyond c would tick as a pure no-op (that is
// exactly the contract skipping is built on), so its tick is elided. Four
// details keep that sound. A core and its L1 (which share index i) always
// tick as a pair — a core Submit schedules completions against its L1's
// clock (and a retry can only clear after L1 state changes), while an L1
// completion can unblock its core the same cycle — so they share one key,
// set after the core ticks, since the core's Submit schedules into the L1.
// A component consumes only its own inbox, and its key holds its inbox's
// front. A send made within the cycle is never deliverable in it (the
// latency is at least one cycle), so the due set is fixed when the step
// starts, and a zero-latency network needs the naive full tick instead. And
// an elided core still owes the stall accounting its no-op ticks would have
// performed: a pair credits it (SkipIdle) for the cycles since stallAt just
// before its L1 ticks, the last point at which the L1 cannot yet have
// flipped the core's outstanding access; advance credits every core before
// a metrics sample and when it returns. An armed in-order core that ticks
// may run ahead on L1 hits up to its Horizon; its wake-up is then the cycle
// its held op issues at.
func (s *System) stepDue(c uint64) {
	s.net.SetCycle(c)
	q := &s.wake
	q.due = q.slices.Due(c, q.due[:0])
	for _, j := range q.due {
		d := s.dirs[j]
		d.Tick(c)
		q.slices.Set(int(j), min(d.NextEvent(c), s.net.NextArrivalFor(d.Node())))
	}
	q.due = q.pairs.Due(c, q.due[:0])
	for _, i := range q.due {
		if n := c - 1 - s.stallAt[i]; n > 0 {
			s.cores[i].SkipIdle(n)
		}
		s.stallAt[i] = c
		s.l1s[i].Tick(c)
	}
	for _, i := range q.due {
		co, l := s.cores[i], s.l1s[i]
		co.Tick(c)
		q.pairs.Set(int(i), min(co.NextEvent(c), l.NextEvent(c), s.net.NextArrivalFor(l.Node())))
		s.noteFinished(int(i))
	}
}

// creditStalls brings every core's stall accounting up to cycle c.
func (s *System) creditStalls(c uint64) {
	for i, co := range s.cores {
		if n := c - s.stallAt[i]; n > 0 {
			co.SkipIdle(n)
			s.stallAt[i] = c
		}
	}
}

// countFinished recounts the cores whose threads have run to completion.
// The steps keep the count as their cores tick (noteFinished); work done
// outside a step needs a recount.
func (s *System) countFinished() {
	s.unfinished = 0
	for i, c := range s.cores {
		s.coreDone[i] = c.Finished()
		if !s.coreDone[i] {
			s.unfinished++
		}
	}
}

// noteFinished counts core i out once its thread has run to completion; only
// a tick of core i or of its L1 can finish it.
func (s *System) noteFinished(i int) {
	if !s.coreDone[i] && s.cores[i].Finished() {
		s.coreDone[i] = true
		s.unfinished--
	}
}

// finished reports whether every thread has run to completion.
func (s *System) finished() bool { return s.unfinished == 0 }

// idle reports whether every L1 and directory slice is idle.
func (s *System) idle() bool {
	for _, l := range s.l1s {
		if !l.Idle() {
			return false
		}
	}
	for _, d := range s.dirs {
		if !d.Idle() {
			return false
		}
	}
	return true
}
