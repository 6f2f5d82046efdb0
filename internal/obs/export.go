package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// Chrome trace-event export: the format understood by Perfetto and
// chrome://tracing. Cores appear as threads of process 0, LLC slices as
// threads of process 1, and run-level events (oracle failures) under
// process 2. One simulated cycle maps to one microsecond of trace time.
//
// Most events export as "i" (instant) samples on the relevant track; PRV
// episodes are paired begin/terminate and export as "X" (complete) spans on
// the home slice's track, so privatized-episode lifetimes render as bars.

const (
	pidCores  = 0
	pidSlices = 1
	pidSim    = 2
)

// traceEvent is one entry of the Chrome trace-event JSON array.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   uint64         `json:"ts"`
	Dur  uint64         `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"`
	Cat  string         `json:"cat,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

type traceFile struct {
	TraceEvents     []traceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
}

// track places an event on its Perfetto track.
func track(e Event) (pid, tid int) {
	switch {
	case e.Kind == KindNetSend || e.Kind == KindNetRecv:
		// Net events render on the sending (send) / receiving (recv)
		// node's track.
		if e.Core >= 0 {
			return pidCores, int(e.Core)
		}
		return pidSlices, int(e.Slice)
	case e.Kind == KindL1State || e.Kind == KindCommit:
		return pidCores, int(e.Core)
	case e.Slice >= 0:
		return pidSlices, int(e.Slice)
	case e.Core >= 0:
		return pidCores, int(e.Core)
	default:
		return pidSim, 0
	}
}

// openEpisode tracks a PRV begin awaiting its terminate.
type openEpisode struct {
	begin Event
	order int
}

// WriteChromeTrace renders events (oldest-first, as returned by
// Tracer.Events) as Chrome trace-event JSON. The output is deterministic:
// event order follows the input, map keys are sorted by encoding/json, and
// no wall-clock state is consulted.
func WriteChromeTrace(w io.Writer, events []Event) error {
	out := traceFile{DisplayTimeUnit: "ms", TraceEvents: []traceEvent{}}

	// Metadata: name the processes and every thread that appears.
	type key struct{ pid, tid int }
	tracks := map[key]bool{}
	for _, e := range events {
		pid, tid := track(e)
		tracks[key{pid, tid}] = true
	}
	var keys []key
	for k := range tracks {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].pid != keys[j].pid {
			return keys[i].pid < keys[j].pid
		}
		return keys[i].tid < keys[j].tid
	})
	procName := map[int]string{pidCores: "cores", pidSlices: "llc", pidSim: "sim"}
	seenPid := map[int]bool{}
	for _, k := range keys {
		if !seenPid[k.pid] {
			seenPid[k.pid] = true
			out.TraceEvents = append(out.TraceEvents, traceEvent{
				Name: "process_name", Ph: "M", Pid: k.pid, Tid: 0,
				Args: map[string]any{"name": procName[k.pid]},
			})
		}
		var tname string
		switch k.pid {
		case pidCores:
			tname = fmt.Sprintf("core %d", k.tid)
		case pidSlices:
			tname = fmt.Sprintf("llc slice %d", k.tid)
		default:
			tname = "system"
		}
		out.TraceEvents = append(out.TraceEvents, traceEvent{
			Name: "thread_name", Ph: "M", Pid: k.pid, Tid: k.tid,
			Args: map[string]any{"name": tname},
		})
	}

	// Body. PRV begins are held open and flushed as "X" spans when their
	// terminate (or the end of the trace) arrives.
	open := map[uint64]openEpisode{} // by block address
	var lastCycle uint64
	for i, e := range events {
		if e.Cycle > lastCycle {
			lastCycle = e.Cycle
		}
		pid, tid := track(e)
		te := traceEvent{
			Name: e.Kind.String(), Ph: "i", S: "t",
			Ts: e.Cycle, Pid: pid, Tid: tid,
			Args: map[string]any{"addr": e.Addr.String()},
		}
		switch e.Kind {
		case KindNetSend, KindNetRecv:
			src, dst := e.SrcDst()
			te.Name = e.Kind.String() + " " + e.Name
			te.Cat = "net"
			te.Args["seq"] = e.Arg
			te.Args["src"] = src
			te.Args["dst"] = dst
		case KindL1State, KindDirState:
			te.Name = e.Kind.String() + " " + e.Name
			te.Cat = "state"
		case KindCommit:
			te.Name = "commit " + e.Name
			te.Cat = "commit"
			te.Args["value"] = fmt.Sprintf("0x%x", e.Arg)
			te.Args["size"] = e.Arg2
		case KindMiss:
			te.Cat = "miss"
			te.Args["latency"] = e.Arg
		case KindDetect, KindContended:
			te.Cat = "detect"
			te.Args["episodes"] = e.Arg
		case KindPrvBegin:
			te.Cat = "prv"
			te.Args["core"] = e.Arg
			open[uint64(e.Addr)] = openEpisode{begin: e, order: i}
		case KindPrvAbort, KindPrvMerge:
			te.Cat = "prv"
			if e.Core >= 0 {
				te.Args["core"] = e.Core
			}
			if e.Name != "" {
				te.Args["reason"] = e.Name
			}
		case KindPrvTerminate:
			te.Cat = "prv"
			te.Args["reason"] = e.Name
			te.Args["invalidations"] = e.Arg2
			if ep, ok := open[uint64(e.Addr)]; ok {
				delete(open, uint64(e.Addr))
				out.TraceEvents = append(out.TraceEvents, traceEvent{
					Name: "PRV " + e.Addr.String(), Ph: "X",
					Ts: ep.begin.Cycle, Dur: e.Cycle - ep.begin.Cycle,
					Pid: pid, Tid: tid, Cat: "prv",
					Args: map[string]any{
						"addr":   e.Addr.String(),
						"reason": e.Name,
					},
				})
			}
		case KindOracle:
			te.Cat = "oracle"
			te.Args["detail"] = e.Name
		}
		out.TraceEvents = append(out.TraceEvents, te)
	}

	// Episodes still open when the trace ends render as spans reaching the
	// last traced cycle.
	var leftovers []openEpisode
	for _, ep := range open {
		leftovers = append(leftovers, ep)
	}
	sort.Slice(leftovers, func(i, j int) bool { return leftovers[i].order < leftovers[j].order })
	for _, ep := range leftovers {
		pid, tid := track(ep.begin)
		out.TraceEvents = append(out.TraceEvents, traceEvent{
			Name: "PRV " + ep.begin.Addr.String(), Ph: "X",
			Ts: ep.begin.Cycle, Dur: lastCycle - ep.begin.Cycle,
			Pid: pid, Tid: tid, Cat: "prv",
			Args: map[string]any{"addr": ep.begin.Addr.String(), "reason": "open"},
		})
	}

	enc := json.NewEncoder(w)
	return enc.Encode(&out)
}
