package sim

// The skip engine's stepping. System caches each component's NextEvent
// (dirNext, l1Next, coreNext), refreshed after the component ticks: a
// component's wake-up only moves when it ticks, and zero marks everything
// due, so the next stepped cycle ticks the whole machine and reseeds the
// caches (see wakeAll).

// wakeAll marks every component due. Work created outside a tick — issue
// held or released, a warming window — does not show in the caches, so each
// sequential loop entry starts from here.
func (s *System) wakeAll() {
	clear(s.dirNext)
	clear(s.l1Next)
	clear(s.coreNext)
}

// nextWake reports the earliest cycle at which any component has
// self-driven work or a delivered message becomes consumable (values <= the
// last stepped cycle mean leftover same-cycle work). Component wake-ups come
// from the per-component caches, so the scan is a flat uint64 min, not a
// round of interface calls.
func (s *System) nextWake() uint64 {
	wake := s.net.NextArrival()
	for _, v := range s.dirNext {
		if v < wake {
			wake = v
		}
	}
	for _, v := range s.l1Next {
		if v < wake {
			wake = v
		}
	}
	for _, v := range s.coreNext {
		if v < wake {
			wake = v
		}
	}
	return wake
}

// stepDue runs one cycle in the naive engine's tick order — directory slices,
// then L1s, then cores — ticking only the components that are due.
//
// A component whose cached NextEvent lies beyond c would tick as a pure
// no-op (that is exactly the contract skipping is built on), so its tick is
// elided. Three details keep that sound. An elided core still needs the
// per-cycle stall accounting a no-op tick would have performed, which
// SkipIdle(1) supplies. A core and its L1 (which share index i) always tick
// as a pair — a core Submit schedules completions against its L1's clock
// (and a retry can only clear after L1 state changes), while an L1
// completion can unblock its core the same cycle — so either being due ticks
// both; the L1's cache is refreshed after its core ticks, since the core's
// Submit schedules into the L1. And a component consumes only its own inbox,
// so one with a deliverable message is due too: once any arrival is due this
// cycle, each L1 and directory asks the network about its own inbox. A send
// made within the cycle is never deliverable in it (the latency is at least
// one cycle), which is why a zero-latency network needs the naive full tick
// instead.
func (s *System) stepDue(c uint64) {
	s.net.SetCycle(c)
	arrivals := s.net.NextArrival() <= c
	for i, d := range s.dirs {
		if s.dirNext[i] <= c || arrivals && s.net.Deliverable(d.Node()) {
			d.Tick(c)
			s.dirNext[i] = d.NextEvent(c)
		}
	}
	for i, l := range s.l1s {
		s.l1Act[i] = s.l1Next[i] <= c || s.coreNext[i] <= c || arrivals && s.net.Deliverable(l.Node())
		if s.l1Act[i] {
			l.Tick(c)
		}
	}
	for i, co := range s.cores {
		if s.l1Act[i] {
			co.Tick(c)
			s.coreNext[i] = co.NextEvent(c)
			s.l1Next[i] = s.l1s[i].NextEvent(c)
		} else {
			co.SkipIdle(1)
		}
	}
}

// skipIdle credits every core with d idle cycles, the per-cycle stall
// accounting the skipped no-op ticks would have performed.
func (s *System) skipIdle(d uint64) {
	for _, c := range s.cores {
		c.SkipIdle(d)
	}
}

// finished reports whether every thread has run to completion.
func (s *System) finished() bool {
	for _, c := range s.cores {
		if !c.Finished() {
			return false
		}
	}
	return true
}

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
