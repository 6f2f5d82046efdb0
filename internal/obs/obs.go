// Package obs is the unified observability layer for the simulator: a typed
// event tracer with a bounded ring buffer and per-core/per-address/per-class
// filters, exportable as Chrome trace-event JSON (loadable in Perfetto), plus
// interval metrics (periodic stats snapshots and deterministic power-of-two
// histograms).
//
// The layer is zero-cost when disabled: every component holds a *Tracer (or
// *Histogram) pointer that is nil unless observability was requested, and hot
// paths guard event construction behind a single nil check. All emit methods
// are additionally nil-receiver safe, so call sites may omit the guard where
// the construction cost does not matter.
//
// obs sits below the simulator proper: it imports only internal/memsys and
// the standard library, so network, coherence, core and sim can all depend on
// it. Event labels (opcode names, state-transition names, termination
// reasons) are passed as pre-interned strings — emitting an event never
// allocates.
package obs

import (
	"fmt"
	"strconv"
	"strings"

	"fscoherence/internal/memsys"
)

// Kind classifies a traced event.
type Kind uint8

// Event kinds, one per instrumented site class.
const (
	// KindNetSend / KindNetRecv mark a message entering / leaving the
	// interconnect. Name is the opcode, Arg the network sequence number,
	// Arg2 packs src<<32|dst node IDs.
	KindNetSend Kind = iota
	KindNetRecv

	// KindL1State / KindDirState mark a cache-line state transition.
	// Name is "From->To".
	KindL1State
	KindDirState

	// KindDetect / KindContended mark an FSDetect classification of a
	// line as falsely shared / contended truly-shared. Arg is the episode
	// ordinal for the line.
	KindDetect
	KindContended

	// PRV episode lifecycle (FSLite). For KindPrvBegin Arg is the
	// requesting core. For KindPrvTerminate Name is the termination
	// reason, Arg the episode length in cycles and Arg2 the number of
	// invalidations sent to collect private copies. KindPrvMerge marks a
	// privatized writeback being byte-merged at the directory (Core is
	// the contributing core).
	KindPrvBegin
	KindPrvAbort
	KindPrvTerminate
	KindPrvMerge

	// KindCommit marks a memory operation committing on a core. Name is
	// the operation ("load", "store", "reduce" or "rmw"), Arg holds up to
	// 8 data bytes little-endian (the value loaded, stored or added; an
	// atomic read-modify-write commits once, carrying the value it wrote),
	// Arg2 the access size in bytes.
	KindCommit

	// KindOracle marks a verification failure (golden-memory oracle or
	// SWMR invariant scan).
	KindOracle

	// KindMiss marks a core's demand miss completing: Addr is the block,
	// Arg the miss latency in cycles. The zero Kinds mask leaves it out —
	// the messages and state changes of a miss are already traced — so a
	// filter records it only when asked (class=miss); a tap sees it always.
	KindMiss

	numKinds
)

var kindNames = [numKinds]string{
	KindNetSend:      "net.send",
	KindNetRecv:      "net.recv",
	KindL1State:      "l1.state",
	KindDirState:     "dir.state",
	KindDetect:       "fs.detect",
	KindContended:    "fs.contended",
	KindPrvBegin:     "prv.begin",
	KindPrvAbort:     "prv.abort",
	KindPrvTerminate: "prv.terminate",
	KindPrvMerge:     "prv.merge",
	KindCommit:       "commit",
	KindOracle:       "oracle",
	KindMiss:         "l1.miss",
}

// String returns the canonical dotted name for the kind ("net.send", ...).
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "kind(" + strconv.Itoa(int(k)) + ")"
}

// KindMask selects a set of event kinds; bit i selects Kind(i).
// The zero mask means every kind but KindMiss.
type KindMask uint32

// Mask returns the mask selecting exactly the given kinds.
func Mask(kinds ...Kind) KindMask {
	var m KindMask
	for _, k := range kinds {
		m |= 1 << k
	}
	return m
}

// Has reports whether the mask selects k. The zero mask selects every kind
// but KindMiss.
func (m KindMask) Has(k Kind) bool {
	if m == 0 {
		return k != KindMiss
	}
	return m&(1<<k) != 0
}

// Event is one traced occurrence. Events are small value types; recording
// one copies it into the ring buffer and never allocates.
type Event struct {
	Cycle uint64
	Kind  Kind

	// Core / Slice locate the event on a hardware track; -1 means the
	// event has no core (resp. slice) affinity.
	Core  int16
	Slice int16

	// Addr is the (usually block-aligned) address involved, if any.
	Addr memsys.Addr

	// Name is a pre-interned label: opcode, "From->To" transition,
	// commit kind, or termination reason.
	Name string

	// Arg / Arg2 carry kind-specific payload (see the Kind constants).
	Arg  uint64
	Arg2 uint64
}

// SrcDst unpacks the node pair carried by net events in Arg2.
func (e Event) SrcDst() (src, dst int) {
	return int(e.Arg2 >> 32), int(e.Arg2 & 0xffffffff)
}

// PackSrcDst packs a node pair for a net event's Arg2.
func PackSrcDst(src, dst int) uint64 {
	return uint64(uint32(src))<<32 | uint64(uint32(dst))
}

// String renders the event in the stable single-line format used by golden
// trace tests: cycle, kind, location, name, address, args.
func (e Event) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "C%07d %-13s", e.Cycle, e.Kind.String())
	switch e.Kind {
	case KindNetSend, KindNetRecv:
		src, dst := e.SrcDst()
		fmt.Fprintf(&b, " %-9s n%d->n%d %s seq=%d", e.Name, src, dst, e.Addr, e.Arg)
	case KindCommit:
		fmt.Fprintf(&b, " core%-2d %-5s %s = 0x%0*x", e.Core, e.Name, e.Addr, int(e.Arg2)*2, e.Arg)
	case KindL1State:
		fmt.Fprintf(&b, " core%-2d %s %s", e.Core, e.Name, e.Addr)
	case KindMiss:
		fmt.Fprintf(&b, " core%-2d %s lat=%d", e.Core, e.Addr, e.Arg)
	case KindDirState:
		fmt.Fprintf(&b, " slice%-2d %s %s", e.Slice, e.Name, e.Addr)
	case KindPrvBegin:
		fmt.Fprintf(&b, " slice%-2d %s core=%d", e.Slice, e.Addr, e.Arg)
	case KindPrvTerminate:
		fmt.Fprintf(&b, " slice%-2d %s reason=%s len=%d inv=%d", e.Slice, e.Addr, e.Name, e.Arg, e.Arg2)
	case KindPrvAbort, KindPrvMerge, KindDetect, KindContended:
		fmt.Fprintf(&b, " slice%-2d %s", e.Slice, e.Addr)
		if e.Core >= 0 {
			fmt.Fprintf(&b, " core=%d", e.Core)
		}
		if e.Name != "" {
			fmt.Fprintf(&b, " %s", e.Name)
		}
	default:
		if e.Name != "" {
			fmt.Fprintf(&b, " %s", e.Name)
		}
		fmt.Fprintf(&b, " %s", e.Addr)
	}
	return b.String()
}

// Filter restricts which events a Tracer records. The zero value matches
// every event.
type Filter struct {
	// Core, when HasCore is set, keeps only events whose Core matches.
	Core    int
	HasCore bool

	// Addr, when HasAddr is set, keeps only events whose block-aligned
	// address matches (Addr is aligned with BlockMask before comparing;
	// a zero BlockMask compares exact addresses).
	Addr      memsys.Addr
	HasAddr   bool
	BlockMask uint64

	// Kinds selects event classes; the zero mask keeps all but KindMiss.
	Kinds KindMask
}

// NewFilter returns the match-everything filter (same as the zero value).
func NewFilter() Filter { return Filter{} }

// Match reports whether the filter keeps e.
func (f Filter) Match(e Event) bool {
	if !f.Kinds.Has(e.Kind) {
		return false
	}
	if f.HasCore && int(e.Core) != f.Core {
		return false
	}
	if f.HasAddr {
		mask := memsys.Addr(f.BlockMask)
		if mask != 0 {
			if e.Addr&^mask != f.Addr&^mask {
				return false
			}
		} else if e.Addr != f.Addr {
			return false
		}
	}
	return true
}

// Named event-class groups accepted by ParseFilter's class= key.
var classMasks = map[string]KindMask{
	"net":    Mask(KindNetSend, KindNetRecv),
	"l1":     Mask(KindL1State),
	"dir":    Mask(KindDirState),
	"state":  Mask(KindL1State, KindDirState),
	"detect": Mask(KindDetect, KindContended),
	"prv":    Mask(KindPrvBegin, KindPrvAbort, KindPrvTerminate, KindPrvMerge),
	"commit": Mask(KindCommit),
	"oracle": Mask(KindOracle),
	"miss":   Mask(KindMiss),
}

// ParseFilter parses a command-line filter spec of comma-separated key=value
// pairs: "addr=0x1040,core=3,class=net|prv". Addresses are matched at block
// granularity (blockSize bytes; pass 0 for exact matching). An empty spec
// yields the match-everything filter.
func ParseFilter(spec string, blockSize int) (Filter, error) {
	f := NewFilter()
	if blockSize > 0 {
		f.BlockMask = uint64(blockSize - 1)
	}
	if spec == "" {
		return f, nil
	}
	for _, part := range strings.Split(spec, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return f, fmt.Errorf("obs: filter %q: want key=value", part)
		}
		switch key {
		case "addr":
			a, err := strconv.ParseUint(val, 0, 64)
			if err != nil {
				return f, fmt.Errorf("obs: filter addr %q: %v", val, err)
			}
			f.Addr = memsys.Addr(a)
			f.HasAddr = true
		case "core":
			c, err := strconv.Atoi(val)
			if err != nil {
				return f, fmt.Errorf("obs: filter core %q: %v", val, err)
			}
			f.Core = c
			f.HasCore = true
		case "class", "kind":
			var m KindMask
			for _, cls := range strings.Split(val, "|") {
				cm, ok := classMasks[cls]
				if !ok {
					return f, fmt.Errorf("obs: filter class %q (known: net l1 dir state detect prv commit oracle miss)", cls)
				}
				m |= cm
			}
			f.Kinds = m
		default:
			return f, fmt.Errorf("obs: filter key %q (known: addr core class)", key)
		}
	}
	return f, nil
}

// Config sizes an observability attachment.
type Config struct {
	// TraceCapacity bounds the event ring buffer; when the buffer is
	// full the oldest events are overwritten. 0 selects
	// DefaultTraceCapacity; a negative capacity keeps no events (useful
	// for sink-only tracers).
	TraceCapacity int

	// Filter restricts which events are recorded.
	Filter Filter

	// MetricsInterval is the cycle period between stats snapshots
	// (0 selects DefaultMetricsInterval).
	MetricsInterval uint64
}

// Default sizing for Config zero values.
const (
	DefaultTraceCapacity   = 1 << 18
	DefaultMetricsInterval = 4096
)

// Obs bundles the tracer and metrics attachments handed to a run. Either
// field may be nil; a nil *Obs disables observability entirely.
type Obs struct {
	Tracer  *Tracer
	Metrics *Metrics
}

// New returns an Obs with both a tracer and interval metrics per cfg.
func New(cfg Config) *Obs {
	return &Obs{Tracer: NewTracer(cfg), Metrics: NewMetrics(cfg)}
}

// GetTracer returns the tracer attachment, or nil.
func (o *Obs) GetTracer() *Tracer {
	if o == nil {
		return nil
	}
	return o.Tracer
}

// GetMetrics returns the metrics attachment, or nil.
func (o *Obs) GetMetrics() *Metrics {
	if o == nil {
		return nil
	}
	return o.Metrics
}
