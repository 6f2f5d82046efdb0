package sim

// Conservative parallel discrete-event engine (-engine=parallel).
//
// The machine is partitioned into K shards, each owning a contiguous range
// of cores (with their L1s) and of LLC/directory slices. Components interact
// across shards only through network messages, and the network guarantees a
// minimum delivery latency L (the flat fabric's Latency, or one hop on a
// ring/mesh — see PROTOCOL.md §"Network timing & lookahead"). A message sent
// at cycle c can therefore never need delivery before c+L, which makes L a
// conservative lookahead: the engine advances time in epochs of width L, and
// within an epoch every shard simulates its own components independently on
// its own OS thread, running the same quiescence-skipping loop the
// sequential EngineSkip uses — restricted to local events.
//
// Correctness (byte-identical results, proven by TestEngineEquivalence*)
// rests on deferred-send replay: during an epoch a shard's network front
// records every send and receive with its global position (cycle, component
// tick rank, intra-tick index) instead of admitting it. At the epoch barrier
// the coordinator merges all shards' operation streams in that global order
// — exactly the order the sequential engines perform them — and replays the
// merged stream through the master network, which runs the full sequential
// admission path (sequence numbering, topology routing and link contention,
// per-channel FIFO clamps, statistics, in-flight peak tracking) and routes
// each message into the destination shard's inbox. Per-shard statistics sets
// merge deterministically at the end of the run; the in-flight peak, the
// only globally order-sensitive counter, is maintained by the master network
// during replay.

import (
	"fmt"
	"runtime"

	"fscoherence/internal/coherence"
	"fscoherence/internal/cpu"
	"fscoherence/internal/memsys"
	"fscoherence/internal/network"
	"fscoherence/internal/stats"
)

// parallelShards picks the worker count for a configuration the
// compatibility table (compat.go) admitted to the parallel engine.
func parallelShards(cfg Config) int {
	p := cfg.Params
	k := cfg.Shards
	if k <= 0 {
		// One shard per 8 cores: big machines parallelize, the Table II
		// 8-core default degenerates to a single shard (still exercising
		// the deferred-replay path).
		k = p.Cores / 8
	}
	if k < 1 {
		k = 1
	}
	if k > p.Cores {
		k = p.Cores
	}
	if k > 16 {
		k = 16
	}
	return k
}

// minDeliveryLatency mirrors network.MinDeliveryLatency from Params alone
// (needed before the network exists).
func minDeliveryLatency(p coherence.Params) uint64 {
	if p.Topology != network.TopoFlat {
		return p.HopLatencyOrDefault()
	}
	return p.NetLatency
}

// parShard is one worker's slice of the machine.
type parShard struct {
	id    int
	clock uint64 // local current cycle; read by component Now closures

	net   *network.Network // deferred-mode network front
	rec   *network.Recorder
	stats *stats.Set
	mem   *memsys.Memory // backing memory for this shard's slices

	dirs     []*coherence.Dir
	dirRank  []int32
	l1s      []*coherence.L1
	l1Rank   []int32
	cores    []cpu.Core
	coreRank []int32

	now        uint64 // last cycle stepped or skipped over
	lastActive uint64 // last cycle actually stepped (a local event fired)
	quiet      bool   // all local components idle at epoch end
	l1Act      []bool // per-step scratch: which L1s ticked this cycle

	// Cached NextEvent per component, refreshed after each tick (a
	// component's wake-up only moves when it ticks; the zero value marks
	// everything due so the first stepped cycle ticks the full shard and
	// seeds the caches).
	dirNext  []uint64
	l1Next   []uint64
	coreNext []uint64

	cmd chan uint64 // epoch-end commands from the coordinator
}

// parRunner coordinates the shard workers.
type parRunner struct {
	s       *System
	shards  []*parShard
	recs    []*network.Recorder
	owner   []*parShard // NodeID -> owning shard
	done    chan int
	deliver func(m *network.Msg, readyAt uint64)
	started bool
}

// newParRunner builds the shard skeletons (networks, stats sets, recorders,
// memory partitions) before component construction; bind() attaches the
// components afterwards.
func newParRunner(s *System, k int) *parRunner {
	p := s.cfg.Params
	pr := &parRunner{s: s, done: make(chan int, k)}
	for i := 0; i < k; i++ {
		sh := &parShard{
			id:    i,
			net:   network.New(p.Nodes(), p.NetLatency, p.BlockSize, stats.NewSet()),
			rec:   &network.Recorder{},
			stats: stats.NewSet(),
			mem:   memsys.NewMemory(p.BlockSize),
			cmd:   make(chan uint64, 1),
		}
		sh.net.SetRecorder(sh.rec)
		pr.shards = append(pr.shards, sh)
		pr.recs = append(pr.recs, sh.rec)
	}
	pr.owner = make([]*parShard, p.Nodes())
	for i := 0; i < p.Cores; i++ {
		pr.owner[i] = pr.shards[i*k/p.Cores]
	}
	for j := 0; j < p.Slices; j++ {
		pr.owner[p.Cores+j] = pr.shards[j*k/p.Slices]
	}
	pr.deliver = func(m *network.Msg, readyAt uint64) {
		pr.owner[m.Dst].net.Deliver(m, readyAt)
	}
	return pr
}

// bind distributes the constructed components to their shards and assigns
// global tick ranks matching the sequential stepCycle order: directory
// slices first, then L1s, then cores.
func (pr *parRunner) bind() {
	s := pr.s
	p := s.cfg.Params
	k := len(pr.shards)
	for j, d := range s.dirs {
		sh := pr.shards[j*k/p.Slices]
		sh.dirs = append(sh.dirs, d)
		sh.dirRank = append(sh.dirRank, int32(j))
	}
	for i, l := range s.l1s {
		sh := pr.shards[i*k/p.Cores]
		sh.l1s = append(sh.l1s, l)
		sh.l1Rank = append(sh.l1Rank, int32(p.Slices+i))
	}
	for i, c := range s.cores {
		sh := pr.shards[i*k/p.Cores]
		sh.cores = append(sh.cores, c)
		sh.coreRank = append(sh.coreRank, int32(p.Slices+p.Cores+i))
	}
	for _, sh := range pr.shards {
		sh.dirNext = make([]uint64, len(sh.dirs))
		sh.l1Next = make([]uint64, len(sh.l1s))
		sh.coreNext = make([]uint64, len(sh.cores))
	}
}

// start launches one worker goroutine per shard.
func (pr *parRunner) start() {
	if pr.started {
		return
	}
	pr.started = true
	for _, sh := range pr.shards {
		go sh.serve(pr.done)
	}
}

// stop terminates the workers (they drain their command channels).
func (pr *parRunner) stop() {
	if !pr.started {
		return
	}
	pr.started = false
	for _, sh := range pr.shards {
		close(sh.cmd)
	}
}

// run executes the epoch loop to completion and returns the final cycle —
// the cycle at which the sequential engines' done() would first have
// reported quiescence.
//
// Two refinements keep the loop competitive with the sequential engines even
// on a single hardware thread. First, on a GOMAXPROCS=1 host the coordinator
// executes the shards inline instead of paying a goroutine barrier per epoch
// (the command/done channel round-trips dominate at W=4); the per-shard work
// is identical either way, so results are byte-equal by construction.
// Second, an epoch's end is stretched to E+W, where E is the earliest local
// event or delivered arrival across all shards: every deferred send inside
// the epoch happens at a cycle >= E, so its delivery deadline is >= E+W and
// the conservative lookahead still holds. When the whole machine is idle
// until some distant E this collapses arbitrarily many W-wide epochs into
// one, recovering the global idle-skipping the sequential EngineSkip enjoys.
func (pr *parRunner) run(name string, maxCycles uint64) (uint64, error) {
	inline := runtime.GOMAXPROCS(0) == 1
	if !inline {
		pr.start()
		defer pr.stop()
	}
	w := pr.s.net.MinDeliveryLatency()
	t := uint64(1)
	for {
		if t > maxCycles {
			return 0, fmt.Errorf("%w at cycle %d (%s)", ErrDeadlock, maxCycles+1, name)
		}
		pr.s.pollCancel()
		if pr.s.stopReason != "" {
			return 0, fmt.Errorf("%w: %s (%s)", ErrStopped, pr.s.stopReason, name)
		}
		// Stretch the epoch: no shard has an event before wake, so deferred
		// sends can only happen at cycles >= wake and end = wake+W keeps
		// every delivery deadline at or beyond the next barrier.
		wake := uint64(coherence.NoEvent)
		for _, sh := range pr.shards {
			if e := sh.nextLocal(); e < wake {
				wake = e
			}
		}
		if wake < t {
			wake = t
		}
		end := wake + w
		if end > maxCycles+1 {
			end = maxCycles + 1
		}
		if inline {
			for _, sh := range pr.shards {
				sh.runEpoch(end)
			}
		} else {
			for _, sh := range pr.shards {
				sh.cmd <- end
			}
			for range pr.shards {
				<-pr.done
			}
		}
		// Barrier: replay all deferred network traffic in global order on
		// the master network, routing each message into its destination
		// shard's inbox for the coming epochs.
		pr.s.net.Replay(pr.recs, pr.deliver)
		quiet := pr.s.net.Pending() == 0
		for _, sh := range pr.shards {
			quiet = quiet && sh.quiet
		}
		if quiet {
			cycle := uint64(0)
			for _, sh := range pr.shards {
				if sh.lastActive > cycle {
					cycle = sh.lastActive
				}
			}
			return cycle, nil
		}
		t = end
	}
}

// mergeStats folds the per-shard statistics into the master set. Sum
// counters are partitioned across shards, so summing restores the sequential
// totals; peak counters merge by max (per-slice peaks are order-insensitive;
// the global in-flight peak lives on the master set already).
func (pr *parRunner) mergeStats() {
	for _, sh := range pr.shards {
		pr.s.stats.Merge(sh.stats)
	}
}

// serve is the worker loop: run one epoch per command.
func (sh *parShard) serve(done chan<- int) {
	for end := range sh.cmd {
		sh.runEpoch(end)
		done <- sh.id
	}
}

// runEpoch advances the shard's components through cycles [sh.now+1, end)
// with the same event-driven skipping the sequential EngineSkip performs,
// restricted to local events: component wake-ups and already-delivered
// message arrivals. All sends land in the recorder for barrier replay.
func (sh *parShard) runEpoch(end uint64) {
	now := sh.now
	for {
		wake := sh.nextLocal()
		if wake >= end {
			break
		}
		if wake <= now {
			// Leftover deliverable work (e.g. a MaxMsgsPerCycle-capped
			// tick): the very next cycle has work.
			wake = now + 1
			if wake >= end {
				break
			}
		}
		if d := wake - now - 1; d > 0 {
			for _, c := range sh.cores {
				c.SkipIdle(d)
			}
		}
		now = wake
		sh.step(now)
		sh.lastActive = now
	}
	// Idle through the rest of the epoch, compensating per-cycle stall
	// accounting exactly as a sequential skip over the same span would.
	if e := end - 1; e > now {
		d := e - now
		for _, c := range sh.cores {
			c.SkipIdle(d)
		}
		now = e
	}
	sh.now = now
	sh.quiet = sh.isQuiet()
}

// nextLocal reports the earliest cycle at which any local component has
// self-driven work or a delivered message becomes consumable (values <=
// sh.now mean leftover same-cycle work). Component wake-ups come from the
// per-component caches — a component's NextEvent only changes when it ticks,
// and step refreshes the cache after every tick — so the scan is a flat
// uint64 min, not a round of interface calls. The coordinator also polls
// this at the epoch barrier to stretch the next epoch.
func (sh *parShard) nextLocal() uint64 {
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

// step runs one local cycle in sequential component order, labelling each
// component's recorded network operations with its global tick rank.
//
// Within a stepped cycle only components that are due run: a component whose
// cached NextEvent lies beyond c would tick as a pure no-op (that is exactly
// the contract whole-machine skipping is built on), so its tick is elided.
// Three details keep that sound. An elided core still needs the per-cycle
// stall accounting a no-op tick would have performed, which SkipIdle(1)
// supplies. A core and its L1 always tick as a pair — a core Submit
// schedules completions against its L1's clock (and a retry can only clear
// after L1 state changes), while an L1 completion can unblock its core the
// same cycle — so either being due ticks both (bind distributes l1s[i] and
// cores[i] by the same index formula, so they pair up); the L1's cache is
// refreshed after its core ticks, since the core's Submit schedules into the
// L1. And delivered network arrivals are consumed inside L1/Dir ticks, so
// any due arrival runs every L1 and directory.
func (sh *parShard) step(c uint64) {
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
	if cap(sh.l1Act) < len(sh.l1s) {
		sh.l1Act = make([]bool, len(sh.l1s))
	}
	l1Act := sh.l1Act[:len(sh.l1s)]
	for i, l := range sh.l1s {
		l1Act[i] = arrivals || sh.l1Next[i] <= c || sh.coreNext[i] <= c
		if l1Act[i] {
			sh.rec.Begin(c, sh.l1Rank[i])
			l.Tick(c)
		}
	}
	for i, co := range sh.cores {
		if l1Act[i] {
			sh.rec.Begin(c, sh.coreRank[i])
			co.Tick(c)
			sh.coreNext[i] = co.NextEvent(c)
			sh.l1Next[i] = sh.l1s[i].NextEvent(c)
		} else {
			co.SkipIdle(1)
		}
	}
}

// isQuiet reports whether every local component has fully drained. Undelivered
// cross-shard traffic is tracked by the master network's in-flight count, so
// the coordinator's quiescence check is quiet-everywhere && nothing in flight.
func (sh *parShard) isQuiet() bool {
	for _, c := range sh.cores {
		if !c.Finished() {
			return false
		}
	}
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
