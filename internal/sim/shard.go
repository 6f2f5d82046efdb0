package sim

import (
	"fscoherence/internal/coherence"
	"fscoherence/internal/cpu"
	"fscoherence/internal/network"
)

// shard is the machine as the skip engine steps it: every core (with its
// L1) and every LLC/directory slice, wired straight to the network so every
// send is admitted as it happens. step ticks the due components, nextLocal
// names the next cycle with work.
type shard struct {
	net *network.Network

	dirs  []*coherence.Dir
	l1s   []*coherence.L1
	cores []cpu.Core

	l1Act []bool // per-step scratch: which L1s ticked this cycle

	// Cached NextEvent per component, refreshed after each tick (a
	// component's wake-up only moves when it ticks; zero marks everything
	// due, so the next stepped cycle ticks the full shard and reseeds the
	// caches — see wakeAll).
	dirNext  []uint64
	l1Next   []uint64
	coreNext []uint64
}

// newShard binds the constructed components in the naive stepCycle order:
// directory slices first, then L1s, then cores. Core i and its L1 share
// index i, which step's pairing relies on.
func newShard(s *System) *shard {
	return &shard{
		net:      s.net,
		dirs:     s.dirs,
		l1s:      s.l1s,
		cores:    s.cores,
		l1Act:    make([]bool, len(s.l1s)),
		dirNext:  make([]uint64, len(s.dirs)),
		l1Next:   make([]uint64, len(s.l1s)),
		coreNext: make([]uint64, len(s.cores)),
	}
}

// wakeAll marks every component due. Work created outside a tick — issue
// held or released, a warming window, a restored checkpoint — does not show
// in the caches, so each sequential loop entry starts from here.
func (sh *shard) wakeAll() {
	clear(sh.dirNext)
	clear(sh.l1Next)
	clear(sh.coreNext)
}

// nextLocal reports the earliest cycle at which any component has
// self-driven work or a delivered message becomes consumable (values <= the
// last stepped cycle mean leftover same-cycle work). Component wake-ups come
// from the per-component caches, so the scan is a flat uint64 min, not a
// round of interface calls.
func (sh *shard) nextLocal() uint64 {
	wake := sh.net.NextArrival()
	for _, v := range sh.dirNext {
		if v < wake {
			wake = v
		}
	}
	for _, v := range sh.l1Next {
		if v < wake {
			wake = v
		}
	}
	for _, v := range sh.coreNext {
		if v < wake {
			wake = v
		}
	}
	return wake
}

// step runs one cycle in the naive engine's tick order.
//
// Within a stepped cycle only components that are due run: a component whose
// cached NextEvent lies beyond c would tick as a pure no-op (that is exactly
// the contract skipping is built on), so its tick is elided. Three details
// keep that sound. An elided core still needs the per-cycle stall accounting
// a no-op tick would have performed, which SkipIdle(1) supplies. A core and
// its L1 always tick as a pair — a core Submit schedules completions against
// its L1's clock (and a retry can only clear after L1 state changes), while
// an L1 completion can unblock its core the same cycle — so either being due
// ticks both; the L1's cache is refreshed after its core ticks, since the
// core's Submit schedules into the L1. And a component consumes only its
// own inbox, so one with a deliverable message is due too: once any arrival
// is due this cycle, each L1 and directory asks the network about its own
// inbox. A send made within the cycle is never deliverable in it (the
// latency is at least one cycle), which is why a zero-latency network needs
// the naive full tick instead.
func (sh *shard) step(c uint64) {
	sh.net.SetCycle(c)
	arrivals := sh.net.NextArrival() <= c
	for i, d := range sh.dirs {
		if sh.dirNext[i] <= c || arrivals && sh.net.Deliverable(d.Node()) {
			d.Tick(c)
			sh.dirNext[i] = d.NextEvent(c)
		}
	}
	for i, l := range sh.l1s {
		sh.l1Act[i] = sh.l1Next[i] <= c || sh.coreNext[i] <= c || arrivals && sh.net.Deliverable(l.Node())
		if sh.l1Act[i] {
			l.Tick(c)
		}
	}
	for i, co := range sh.cores {
		if sh.l1Act[i] {
			co.Tick(c)
			sh.coreNext[i] = co.NextEvent(c)
			sh.l1Next[i] = sh.l1s[i].NextEvent(c)
		} else {
			co.SkipIdle(1)
		}
	}
}

// skipIdle credits every core with d idle cycles, the per-cycle stall
// accounting the skipped no-op ticks would have performed.
func (sh *shard) skipIdle(d uint64) {
	for _, c := range sh.cores {
		c.SkipIdle(d)
	}
}

// finished reports whether every thread has run to completion.
func (sh *shard) finished() bool {
	for _, c := range sh.cores {
		if !c.Finished() {
			return false
		}
	}
	return true
}

// idle reports whether every L1 and directory slice is idle.
func (sh *shard) idle() bool {
	for _, l := range sh.l1s {
		if !l.Idle() {
			return false
		}
	}
	for _, d := range sh.dirs {
		if !d.Idle() {
			return false
		}
	}
	return true
}
