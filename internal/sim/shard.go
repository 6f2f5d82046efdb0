package sim

import (
	"fscoherence/internal/coherence"
	"fscoherence/internal/cpu"
	"fscoherence/internal/memsys"
	"fscoherence/internal/network"
	"fscoherence/internal/stats"
)

// shard is a slice of the machine stepped as one unit: a contiguous range of
// cores (with their L1s) and of LLC/directory slices. The skip engine runs
// the whole machine as a single shard wired straight to the master network
// with no recorder, so every send is admitted as it happens; the parallel
// engine (parallel.go) runs K shards over lookahead epochs, each on its own
// deferred-mode network front. Both step with the same code: step ticks the
// due components, nextLocal names the next cycle with work.
type shard struct {
	id    int
	clock uint64 // local current cycle; read by component Now closures

	net   *network.Network  // the master network, or a deferred-mode front
	rec   *network.Recorder // nil when net admits sends directly
	stats *stats.Set
	mem   *memsys.Memory // backing memory for this shard's slices

	dirs     []*coherence.Dir
	dirRank  []int32
	l1s      []*coherence.L1
	l1Rank   []int32
	cores    []cpu.Core
	coreRank []int32

	now        uint64 // last cycle stepped or skipped over (parallel)
	lastActive uint64 // last cycle actually stepped (parallel)
	quiet      bool   // all local components idle at epoch end (parallel)
	l1Act      []bool // per-step scratch: which L1s ticked this cycle

	// Cached NextEvent per component, refreshed after each tick (a
	// component's wake-up only moves when it ticks; zero marks everything
	// due, so the next stepped cycle ticks the full shard and reseeds the
	// caches — see wakeAll).
	dirNext  []uint64
	l1Next   []uint64
	coreNext []uint64

	cmd chan uint64 // epoch-end commands from the coordinator (parallel)
}

// bindShards distributes the constructed components to the shards and
// assigns global tick ranks matching the naive stepCycle order: directory
// slices first, then L1s, then cores. Core i and its L1 land in the same
// shard at the same local index, which step's pairing relies on.
func bindShards(s *System, shards []*shard) {
	p := s.cfg.Params
	k := len(shards)
	for j, d := range s.dirs {
		sh := shards[j*k/p.Slices]
		sh.dirs = append(sh.dirs, d)
		sh.dirRank = append(sh.dirRank, int32(j))
	}
	for i, l := range s.l1s {
		sh := shards[i*k/p.Cores]
		sh.l1s = append(sh.l1s, l)
		sh.l1Rank = append(sh.l1Rank, int32(p.Slices+i))
	}
	for i, c := range s.cores {
		sh := shards[i*k/p.Cores]
		sh.cores = append(sh.cores, c)
		sh.coreRank = append(sh.coreRank, int32(p.Slices+p.Cores+i))
	}
	for _, sh := range shards {
		sh.dirNext = make([]uint64, len(sh.dirs))
		sh.l1Next = make([]uint64, len(sh.l1s))
		sh.coreNext = make([]uint64, len(sh.cores))
		sh.l1Act = make([]bool, len(sh.l1s))
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

// nextLocal reports the earliest cycle at which any local component has
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

// step runs one local cycle in rank order, labelling each component's
// recorded network operations with its global tick rank.
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
// core's Submit schedules into the L1. And delivered network arrivals are
// consumed inside L1/Dir ticks, so any due arrival runs every L1 and
// directory. Arrivals are read once, before any tick, which is why a
// zero-latency network (a send delivered within its own cycle) needs the
// naive full tick instead.
func (sh *shard) step(c uint64) {
	sh.clock = c
	sh.net.SetCycle(c)
	arrivals := sh.net.NextArrival() <= c
	for i, d := range sh.dirs {
		if arrivals || sh.dirNext[i] <= c {
			sh.rec.Begin(c, sh.dirRank[i])
			d.Tick(c)
			sh.dirNext[i] = d.NextEvent(c)
		}
	}
	for i, l := range sh.l1s {
		sh.l1Act[i] = arrivals || sh.l1Next[i] <= c || sh.coreNext[i] <= c
		if sh.l1Act[i] {
			sh.rec.Begin(c, sh.l1Rank[i])
			l.Tick(c)
		}
	}
	for i, co := range sh.cores {
		if sh.l1Act[i] {
			sh.rec.Begin(c, sh.coreRank[i])
			co.Tick(c)
			sh.coreNext[i] = co.NextEvent(c)
			sh.l1Next[i] = sh.l1s[i].NextEvent(c)
		} else {
			co.SkipIdle(1)
		}
	}
}

// skipIdle credits every local core with d idle cycles, the per-cycle stall
// accounting the skipped no-op ticks would have performed.
func (sh *shard) skipIdle(d uint64) {
	for _, c := range sh.cores {
		c.SkipIdle(d)
	}
}

// finished reports whether every local thread has run to completion.
func (sh *shard) finished() bool {
	for _, c := range sh.cores {
		if !c.Finished() {
			return false
		}
	}
	return true
}

// idle reports whether every local L1 and directory slice is idle.
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
