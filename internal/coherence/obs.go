package coherence

import (
	"fscoherence/internal/memsys"
	"fscoherence/internal/obs"
	"fscoherence/internal/stats"
)

// Pre-interned "From->To" transition labels, indexed by state pair, so that
// emitting a state-transition event never allocates.
var (
	l1TransName  [L1Prv + 1][L1Prv + 1]string
	dirTransName [DirPrv + 1][DirPrv + 1]string
)

func init() {
	for from := L1Invalid; from <= L1Prv; from++ {
		for to := L1Invalid; to <= L1Prv; to++ {
			l1TransName[from][to] = from.String() + "->" + to.String()
		}
	}
	for from := DirIdle; from <= DirPrv; from++ {
		for to := DirIdle; to <= DirPrv; to++ {
			dirTransName[from][to] = from.String() + "->" + to.String()
		}
	}
}

// Histogram names published by the coherence layer.
const (
	HistMissLatency   = "l1d.miss_latency"
	HistEpisodeCycles = "fs.episode_cycles"
	HistEpisodeInvals = "fs.episode_invalidations"
)

// SetObs attaches the observability layer to this L1 (nil disables; the
// default). Must be called before the first Tick.
func (l *L1) SetObs(o *obs.Obs) {
	l.trace = o.GetTracer()
	l.missHist = o.GetMetrics().Hist(HistMissLatency)
}

// traceState records an L1 line state transition.
func (l *L1) traceState(blk memsys.Addr, from, to L1State) {
	if t := l.trace; t != nil && from != to {
		t.Emit(obs.Event{
			Cycle: l.now, Kind: obs.KindL1State, Core: int16(l.core), Slice: -1,
			Addr: blk, Name: l1TransName[from][to],
		})
	}
}

// noteMiss records a demand miss completing now that began at start: its
// latency feeds the miss histogram and a KindMiss event.
func (l *L1) noteMiss(blk memsys.Addr, start uint64) {
	l.missHist.Observe(l.now - start)
	if t := l.trace; t != nil {
		t.Emit(obs.Event{Cycle: l.now, Kind: obs.KindMiss, Core: int16(l.core), Slice: -1, Addr: blk, Arg: l.now - start})
	}
}

// SetObs attaches the observability layer to this directory slice (nil
// disables; the default). Must be called before the first Tick.
func (d *Dir) SetObs(o *obs.Obs) {
	d.trace = o.GetTracer()
	d.episodeHist = o.GetMetrics().Hist(HistEpisodeCycles)
	d.episodeInvHist = o.GetMetrics().Hist(HistEpisodeInvals)
}

// setState transitions a directory line's state, tracing the change.
func (d *Dir) setState(e *memsys.Entry[dirLine], to DirState) {
	d.traceState(e.Tag, e.Payload.state, to)
	e.Payload.state = to
}

// tracePrvBegin records the start of a privatized episode (core is the
// requestor that triggered it).
func (d *Dir) tracePrvBegin(blk memsys.Addr, core int) {
	if t := d.trace; t != nil {
		t.Emit(obs.Event{Cycle: d.now, Kind: obs.KindPrvBegin, Core: -1, Slice: int16(d.slice), Addr: blk, Arg: uint64(core)})
	}
}

// tracePrvAbort records an aborted privatization initiation.
func (d *Dir) tracePrvAbort(blk memsys.Addr) {
	if t := d.trace; t != nil {
		t.Emit(obs.Event{Cycle: d.now, Kind: obs.KindPrvAbort, Core: -1, Slice: int16(d.slice), Addr: blk})
	}
}

// tracePrvMerge records one core's privatized copy being byte-merged.
func (d *Dir) tracePrvMerge(blk memsys.Addr, core int) {
	d.stats.IncID(stats.IDFSPrvMerges)
	if t := d.trace; t != nil {
		t.Emit(obs.Event{Cycle: d.now, Kind: obs.KindPrvMerge, Core: int16(core), Slice: int16(d.slice), Addr: blk})
	}
}

// tracePrvTerminate records the end of a privatized episode and feeds the
// episode-length and invalidations-per-episode histograms.
func (d *Dir) tracePrvTerminate(e *memsys.Entry[dirLine], reason string, invals int) {
	length := d.now - e.Payload.prvSince
	d.episodeHist.Observe(length)
	d.episodeInvHist.Observe(uint64(invals))
	if t := d.trace; t != nil {
		t.Emit(obs.Event{
			Cycle: d.now, Kind: obs.KindPrvTerminate, Core: -1, Slice: int16(d.slice),
			Addr: e.Tag, Name: reason, Arg: length, Arg2: uint64(invals),
		})
	}
}

// FinalizeObs closes observability for episodes still open when the run
// ends: every line still in DirPrv emits a PrvTerminate event (reason
// "end") and feeds the episode histograms, so traces always contain a
// begin/terminate pair per episode and episode-length statistics include
// episodes that outlive the workload.
func (d *Dir) FinalizeObs(now uint64) {
	if d.trace == nil && d.episodeHist == nil {
		return
	}
	d.now = now
	d.llc.ForEach(func(e *memsys.Entry[dirLine]) {
		if e.Payload.state == DirPrv {
			d.tracePrvTerminate(e, "end", 0)
		}
	})
}

// traceState records a directory line state transition.
func (d *Dir) traceState(blk memsys.Addr, from, to DirState) {
	if t := d.trace; t != nil && from != to {
		t.Emit(obs.Event{
			Cycle: d.now, Kind: obs.KindDirState, Core: -1, Slice: int16(d.slice),
			Addr: blk, Name: dirTransName[from][to],
		})
	}
}
