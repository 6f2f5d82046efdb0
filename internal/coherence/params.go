// Package coherence implements the simulated cache hierarchy: per-core L1
// data caches kept coherent by a directory-based MESI protocol whose
// directory entries are embedded in the shared, inclusive LLC (the paper's
// baseline, §III and §VIII-A), plus the architectural plumbing for the
// FSDetect and FSLite protocol extensions (REQ_MD piggybacking, metadata
// messages, the PRV stable state, privatization initiation/termination and
// the §V-E races). The false-sharing *policy* — PAM/SAM tables, FC/IC/HC
// counters, true-sharing inference and privatization decisions — lives in
// package core and is attached through the L1Policy and DirPolicy interfaces
// defined here.
package coherence

import (
	"fmt"
	"strings"

	"fscoherence/internal/network"
)

// Protocol selects which coherence protocol a simulation runs.
type Protocol int

const (
	// Baseline is the improved (partially non-blocking) directory MESI
	// protocol of §VIII-A.
	Baseline Protocol = iota
	// FSDetect adds metadata tracking and false-sharing detection (§IV).
	FSDetect
	// FSLite adds on-the-fly repair through privatization (§V).
	FSLite
)

func (p Protocol) String() string {
	switch p {
	case Baseline:
		return "Baseline"
	case FSDetect:
		return "FSDetect"
	case FSLite:
		return "FSLite"
	}
	return "Protocol(?)"
}

// ParseProtocol resolves a protocol name, case-insensitively: baseline (or
// mesi), fsdetect (or detect), fslite (or lite).
func ParseProtocol(s string) (Protocol, error) {
	switch strings.ToLower(s) {
	case "baseline", "mesi":
		return Baseline, nil
	case "fsdetect", "detect":
		return FSDetect, nil
	case "fslite", "lite":
		return FSLite, nil
	}
	return 0, fmt.Errorf("unknown protocol %q (want baseline, fsdetect or fslite)", s)
}

// Params describes the simulated memory system geometry and latencies.
// Defaults (see DefaultParams) follow the paper's Table II scaled to
// simulation-friendly sizes.
type Params struct {
	Cores     int // number of cores / L1D caches
	BlockSize int // cache line size in bytes (64)

	L1Entries   int // L1D lines per core
	L1Ways      int
	L1HitCycles uint64 // L1D data access latency (3)

	Slices          int // LLC/directory slices
	LLCEntriesSlice int // LLC lines per slice
	LLCWays         int
	LLCTagCycles    uint64 // LLC tag access latency (2)
	LLCDataCycles   uint64 // LLC data access latency (8)

	NetLatency uint64 // base interconnect traversal latency
	MemLatency uint64 // main memory access latency

	ChkCycles uint64 // conflict-check latency for a PRV block (2, Table II)

	// L2Entries/L2Ways/L2HitCycles configure an optional private mid-level
	// cache per core (§VII three-level hierarchy). L2Entries == 0 disables
	// it. The L2 is a victim cache of the L1: lines displaced from the L1
	// move into it (keeping their coherence state), and only L2 evictions
	// talk to the directory. Access metadata lives at the L1 only — the PAM
	// entry is shipped to the SAM when the line leaves the L1, exactly as
	// the paper describes.
	L2Entries   int
	L2Ways      int
	L2HitCycles uint64

	// NonInclusiveLLC decouples the sparse directory from the LLC data
	// array (§VII): directory entries (DirEntriesSlice of them) can track
	// blocks whose data has been dropped from the LLC (LLCEntriesSlice data
	// slots). A privatized block's first writeback re-allocates the data.
	NonInclusiveLLC bool
	DirEntriesSlice int // sparse-directory entries per slice (default 2x LLC)
	DirWays         int

	// MaxMsgsPerCycle bounds how many incoming messages each controller
	// processes per cycle (models controller occupancy).
	MaxMsgsPerCycle int

	// Topology selects the interconnect model: network.TopoFlat (default)
	// is the paper's fixed-latency fabric; TopoRing and TopoMesh route over
	// an on-chip network with HopLatency cycles per link traversal and
	// per-link contention. The address-interleaved HomeSlice mapping is
	// topology-independent.
	Topology network.TopoKind

	// HopLatency is the per-hop router+link latency for ring/mesh
	// topologies (0 picks DefaultHopLatency; ignored when flat).
	HopLatency uint64
}

// DefaultHopLatency is the per-hop latency used by ring/mesh topologies when
// Params.HopLatency is zero: a few hops across the fabric cost about as much
// as the flat fabric's fixed NetLatency.
const DefaultHopLatency = 4

// DefaultParams returns the Table II configuration with cache capacities
// scaled down so the synthetic workloads exercise the same contention
// behaviour at simulation-friendly sizes: 8 cores, 32 KB 8-way L1D,
// 64-byte lines, 8 LLC slices.
func DefaultParams() Params {
	return Params{
		Cores:           8,
		BlockSize:       64,
		L1Entries:       512, // 32 KB / 64 B
		L1Ways:          8,
		L1HitCycles:     3,
		Slices:          8,
		LLCEntriesSlice: 4096, // 256 KB per slice; inclusive of all L1s
		LLCWays:         16,
		LLCTagCycles:    2,
		LLCDataCycles:   8,
		NetLatency:      12,
		MemLatency:      120,
		ChkCycles:       2,
		MaxMsgsPerCycle: 4,
	}
}

// L1Node returns the network node ID of core c's L1 controller.
func (p Params) L1Node(c int) network.NodeID { return network.NodeID(c) }

// SliceNode returns the network node ID of directory slice s.
func (p Params) SliceNode(s int) network.NodeID { return network.NodeID(p.Cores + s) }

// HomeSlice returns the directory slice index that owns block address a.
func (p Params) HomeSlice(blockAddr uint64) int {
	return int((blockAddr >> uint(log2(p.BlockSize))) % uint64(p.Slices))
}

// Nodes returns the total number of network endpoints.
func (p Params) Nodes() int { return p.Cores + p.Slices }

// HopLatencyOrDefault returns the effective per-hop latency for ring/mesh
// topologies.
func (p Params) HopLatencyOrDefault() uint64 {
	if p.HopLatency != 0 {
		return p.HopLatency
	}
	return DefaultHopLatency
}

// ApplyTopology installs p's topology on a freshly built network (no-op for
// the flat fabric, keeping the seed configuration byte-identical).
func (p Params) ApplyTopology(n *network.Network) {
	if p.Topology != network.TopoFlat {
		n.SetTopology(p.Topology, p.HopLatencyOrDefault(), p.Cores)
	}
}

// ScaleToCores returns p resized to an n-core machine (n a power of two up
// to memsys.MaxCores): one LLC/directory slice per 8 cores (minimum 8, so
// the default 8-core machine keeps its Table II shape) with the total LLC
// capacity growing half as fast as the core count — big machines have more
// aggregate cache but less per core, matching how commercial CMPs scale.
func (p Params) ScaleToCores(n int) Params {
	if n <= 0 || n == p.Cores {
		return p
	}
	out := p
	out.Cores = n
	slices := n / 8
	if slices < 8 {
		slices = 8
	}
	out.Slices = slices
	// Keep per-slice capacity geometry valid: total LLC = default total x
	// sqrt(n/8)-ish via halving per-slice entries once past 64 cores.
	if n >= 64 {
		out.LLCEntriesSlice = p.LLCEntriesSlice / 2
	}
	return out
}

func log2(v int) int {
	n := 0
	for v > 1 {
		v >>= 1
		n++
	}
	return n
}
