// Package stats provides deterministic counter collection for the simulator.
//
// Every component in the simulated memory hierarchy increments named counters
// through a shared *Set. Counters are plain uint64 values: the simulator is
// single-threaded by design, so no synchronization is needed, and snapshots
// are fully deterministic for a given configuration and workload seed.
//
// Canonical counters (the Ctr* constants below) are stored in index-addressed
// slots: hot components address them by ID (the ID constants) with a plain
// array access, no hashing and no allocation. The string map remains for
// long-tail ad hoc counters (per-opcode network breakdowns, rarely-hit debug
// counters); the string-keyed methods transparently route canonical names to
// their slots, so callers never observe the split.
package stats

import (
	"fmt"
	"sort"
	"strings"
)

// ID addresses one canonical counter slot. The zero-allocation hot paths in
// network, coherence and cpu use IDs directly (IncID/AddID/MaxID); IDFor maps
// a canonical name to its ID for code that starts from a string.
type ID uint8

// Canonical counter IDs, one per Ctr* constant (same order).
const (
	IDL1DAccesses ID = iota
	IDL1DHits
	IDL1DMisses
	IDL1DFills
	IDL1DEvicts
	IDL1DWbDirty
	IDLLCAccesses
	IDLLCHits
	IDLLCMisses
	IDLLCFills
	IDLLCEvicts
	IDDirInval
	IDDirInterv
	IDDirFetchReq
	IDDirPendingQ
	IDMemReads
	IDMemWrites
	IDNetMessages
	IDNetBytes
	IDNetHops
	IDNetLinkWait
	IDNetInflightPeak
	IDDirPendqPeak
	IDFSDetected
	IDFSPrivatized
	IDFSPrivAborted
	IDFSTerminations
	IDFSTermConflict
	IDFSTermEviction
	IDFSTermSAMEvict
	IDFSTermExternal
	IDFSChkRequests
	IDFSMetadataMsgs
	IDFSPhantomMsgs
	IDFSTrueSharing
	IDFSMetadataResets
	IDFSHysteresisBlock
	IDFSContended
	IDFSPrvMerges
	IDFSPrvCycles
	IDSAMReplacements
	IDSAMLookups
	IDPAMUpdates
	IDOpsCommitted
	IDLoadsCommitted
	IDStoresCommit
	IDAtomicsCommit
	IDReducesCommit
	IDComputeCycles
	IDStallCycles
	IDCommitStalls
	IDCycles

	// NumIDs is the number of canonical counter slots.
	NumIDs
)

// idNames maps each ID to its canonical counter name.
var idNames = [NumIDs]string{
	IDL1DAccesses:       CtrL1DAccesses,
	IDL1DHits:           CtrL1DHits,
	IDL1DMisses:         CtrL1DMisses,
	IDL1DFills:          CtrL1DFills,
	IDL1DEvicts:         CtrL1DEvicts,
	IDL1DWbDirty:        CtrL1DWbDirty,
	IDLLCAccesses:       CtrLLCAccesses,
	IDLLCHits:           CtrLLCHits,
	IDLLCMisses:         CtrLLCMisses,
	IDLLCFills:          CtrLLCFills,
	IDLLCEvicts:         CtrLLCEvicts,
	IDDirInval:          CtrDirInval,
	IDDirInterv:         CtrDirInterv,
	IDDirFetchReq:       CtrDirFetchReq,
	IDDirPendingQ:       CtrDirPendingQ,
	IDMemReads:          CtrMemReads,
	IDMemWrites:         CtrMemWrites,
	IDNetMessages:       CtrNetMessages,
	IDNetBytes:          CtrNetBytes,
	IDNetHops:           CtrNetHops,
	IDNetLinkWait:       CtrNetLinkWait,
	IDNetInflightPeak:   CtrNetInflightPeak,
	IDDirPendqPeak:      CtrDirPendqPeak,
	IDFSDetected:        CtrFSDetected,
	IDFSPrivatized:      CtrFSPrivatized,
	IDFSPrivAborted:     CtrFSPrivAborted,
	IDFSTerminations:    CtrFSTerminations,
	IDFSTermConflict:    CtrFSTermConflict,
	IDFSTermEviction:    CtrFSTermEviction,
	IDFSTermSAMEvict:    CtrFSTermSAMEvict,
	IDFSTermExternal:    CtrFSTermExternal,
	IDFSChkRequests:     CtrFSChkRequests,
	IDFSMetadataMsgs:    CtrFSMetadataMsgs,
	IDFSPhantomMsgs:     CtrFSPhantomMsgs,
	IDFSTrueSharing:     CtrFSTrueSharing,
	IDFSMetadataResets:  CtrFSMetadataResets,
	IDFSHysteresisBlock: CtrFSHysteresisBlock,
	IDFSContended:       CtrFSContended,
	IDFSPrvMerges:       CtrFSPrvMerges,
	IDFSPrvCycles:       CtrFSPrvCycles,
	IDSAMReplacements:   CtrSAMReplacements,
	IDSAMLookups:        CtrSAMLookups,
	IDPAMUpdates:        CtrPAMUpdates,
	IDOpsCommitted:      CtrOpsCommitted,
	IDLoadsCommitted:    CtrLoadsCommitted,
	IDStoresCommit:      CtrStoresCommit,
	IDAtomicsCommit:     CtrAtomicsCommit,
	IDReducesCommit:     CtrReducesCommit,
	IDComputeCycles:     CtrComputeCycles,
	IDStallCycles:       CtrStallCycles,
	IDCommitStalls:      CtrCommitStalls,
	IDCycles:            CtrCycles,
}

var (
	idByName = make(map[string]ID, NumIDs)
	idPeak   [NumIDs]bool
)

func init() {
	for id := ID(0); id < NumIDs; id++ {
		if idNames[id] == "" {
			panic(fmt.Sprintf("stats: ID %d has no canonical name", id))
		}
		idByName[idNames[id]] = id
		idPeak[id] = IsPeak(idNames[id])
	}
}

// IDFor returns the slot ID for a canonical counter name.
func IDFor(name string) (ID, bool) {
	id, ok := idByName[name]
	return id, ok
}

// Name returns the canonical counter name for a slot ID.
func (id ID) Name() string { return idNames[id] }

// Set is a collection of named counters.
//
// The zero value is not usable; construct with NewSet.
type Set struct {
	// slots holds the canonical counters; present tracks which have been
	// touched, preserving the map semantics of "only counters that were
	// written appear in Snapshot/Names".
	slots   [NumIDs]uint64
	present [NumIDs]bool

	counters map[string]uint64 // long-tail (non-canonical) counters
}

// NewSet returns an empty counter set.
func NewSet() *Set {
	return &Set{counters: make(map[string]uint64)}
}

// AddID increments canonical counter id by delta.
func (s *Set) AddID(id ID, delta uint64) {
	s.slots[id] += delta
	s.present[id] = true
}

// IncID increments canonical counter id by one.
func (s *Set) IncID(id ID) {
	s.slots[id]++
	s.present[id] = true
}

// GetID returns the current value of canonical counter id.
func (s *Set) GetID(id ID) uint64 { return s.slots[id] }

// SetID stores an absolute value for canonical counter id.
func (s *Set) SetID(id ID, v uint64) {
	s.slots[id] = v
	s.present[id] = true
}

// MaxID raises canonical counter id to v if v is larger than the current
// value. Like Max, a zero observation on an untouched counter leaves no trace.
func (s *Set) MaxID(id ID, v uint64) {
	if v > s.slots[id] {
		s.slots[id] = v
		s.present[id] = true
	}
}

// Add increments counter name by delta.
func (s *Set) Add(name string, delta uint64) {
	if id, ok := idByName[name]; ok {
		s.AddID(id, delta)
		return
	}
	s.counters[name] += delta
}

// Inc increments counter name by one.
func (s *Set) Inc(name string) {
	if id, ok := idByName[name]; ok {
		s.IncID(id)
		return
	}
	s.counters[name]++
}

// Get returns the current value of counter name (zero if never incremented).
func (s *Set) Get(name string) uint64 {
	if id, ok := idByName[name]; ok {
		return s.slots[id]
	}
	return s.counters[name]
}

// Set stores an absolute value for counter name, replacing any prior value.
func (s *Set) Set(name string, v uint64) {
	if id, ok := idByName[name]; ok {
		s.SetID(id, v)
		return
	}
	s.counters[name] = v
}

// Max raises counter name to v if v is larger than the current value.
func (s *Set) Max(name string, v uint64) {
	if id, ok := idByName[name]; ok {
		s.MaxID(id, v)
		return
	}
	if v > s.counters[name] {
		s.counters[name] = v
	}
}

// Names returns the sorted list of counter names present in the set.
func (s *Set) Names() []string {
	names := make([]string, 0, len(s.counters)+int(NumIDs))
	for id := ID(0); id < NumIDs; id++ {
		if s.present[id] {
			names = append(names, idNames[id])
		}
	}
	for n := range s.counters {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Snapshot returns a copy of all counters.
func (s *Set) Snapshot() map[string]uint64 {
	out := make(map[string]uint64, len(s.counters)+int(NumIDs))
	for id := ID(0); id < NumIDs; id++ {
		if s.present[id] {
			out[idNames[id]] = s.slots[id]
		}
	}
	for k, v := range s.counters {
		out[k] = v
	}
	return out
}

// PeakSuffix marks counters with max semantics: values written via Max
// (peaks, high-water marks) rather than accumulated. MergeMap takes the
// maximum for such counters instead of summing, since summing two peak
// observations is meaningless.
const PeakSuffix = ".peak"

// IsPeak reports whether the counter name follows the peak (max-semantics)
// naming convention.
func IsPeak(name string) bool { return strings.HasSuffix(name, PeakSuffix) }

// MergeMap folds a counter map into s: counters accumulate, except peak
// counters (names ending in PeakSuffix), which take the maximum. Canonical
// names route into their slots.
func (s *Set) MergeMap(counters map[string]uint64) {
	for k, v := range counters {
		if id, ok := idByName[k]; ok {
			if idPeak[id] {
				s.MaxID(id, v)
				s.present[id] = true
			} else {
				s.AddID(id, v)
			}
			continue
		}
		if !IsPeak(k) {
			s.counters[k] += v
		} else if v > s.counters[k] {
			s.counters[k] = v
		}
	}
}

// Reset removes all counters.
func (s *Set) Reset() {
	s.slots = [NumIDs]uint64{}
	s.present = [NumIDs]bool{}
	s.counters = make(map[string]uint64)
}

// SumPrefix returns the sum of all counters whose name begins with prefix.
func (s *Set) SumPrefix(prefix string) uint64 {
	var sum uint64
	for id := ID(0); id < NumIDs; id++ {
		if s.present[id] && strings.HasPrefix(idNames[id], prefix) {
			sum += s.slots[id]
		}
	}
	for k, v := range s.counters {
		if strings.HasPrefix(k, prefix) {
			sum += v
		}
	}
	return sum
}

// String renders the counters one per line, sorted by name.
func (s *Set) String() string {
	var b strings.Builder
	for _, n := range s.Names() {
		fmt.Fprintf(&b, "%-48s %d\n", n, s.Get(n))
	}
	return b.String()
}

// Ratio returns num/den as a float64, or 0 if the denominator counter is zero.
func (s *Set) Ratio(num, den string) float64 {
	d := s.Get(den)
	if d == 0 {
		return 0
	}
	return float64(s.Get(num)) / float64(d)
}

// Canonical counter names shared across the simulator. Components may define
// additional ad hoc counters, but anything consumed by the experiment harness
// must be listed here so the dependency is explicit and greppable.
const (
	// Core-side demand access counters.
	CtrL1DAccesses = "l1d.accesses"
	CtrL1DHits     = "l1d.hits"
	CtrL1DMisses   = "l1d.misses"
	CtrL1DFills    = "l1d.fills"
	CtrL1DEvicts   = "l1d.evictions"
	CtrL1DWbDirty  = "l1d.writebacks_dirty"

	// LLC / directory counters.
	CtrLLCAccesses = "llc.accesses"
	CtrLLCHits     = "llc.hits"
	CtrLLCMisses   = "llc.misses"
	CtrLLCFills    = "llc.fills"
	CtrLLCEvicts   = "llc.evictions"
	CtrDirInval    = "dir.invalidations"
	CtrDirInterv   = "dir.interventions"
	CtrDirFetchReq = "dir.fetch_requests"
	CtrDirPendingQ = "dir.pending_queued"
	CtrMemReads    = "mem.reads"
	CtrMemWrites   = "mem.writes"

	// Network counters (also broken down per message class by the network).
	CtrNetMessages = "net.messages"
	CtrNetBytes    = "net.bytes"

	// NoC topology counters (zero under the flat interconnect).
	CtrNetHops     = "net.hops"
	CtrNetLinkWait = "net.link_wait"

	// High-water marks (max semantics on MergeMap; see PeakSuffix).
	CtrNetInflightPeak = "net.inflight" + PeakSuffix
	CtrDirPendqPeak    = "dir.pendq" + PeakSuffix

	// FSDetect / FSLite counters.
	CtrFSDetected        = "fs.lines_detected"
	CtrFSPrivatized      = "fs.privatizations"
	CtrFSPrivAborted     = "fs.privatization_aborts"
	CtrFSTerminations    = "fs.terminations"
	CtrFSTermConflict    = "fs.terminations_conflict"
	CtrFSTermEviction    = "fs.terminations_eviction"
	CtrFSTermSAMEvict    = "fs.terminations_sam_evict"
	CtrFSTermExternal    = "fs.terminations_external"
	CtrFSChkRequests     = "fs.chk_requests"
	CtrFSMetadataMsgs    = "fs.metadata_messages"
	CtrFSPhantomMsgs     = "fs.phantom_messages"
	CtrFSTrueSharing     = "fs.true_sharing_marks"
	CtrFSMetadataResets  = "fs.metadata_resets"
	CtrFSHysteresisBlock = "fs.hysteresis_blocked"
	CtrFSContended       = "fs.contended_lines"
	CtrFSPrvMerges       = "fs.prv_merges"
	CtrFSPrvCycles       = "fs.prv_cycles"
	CtrSAMReplacements   = "sam.valid_replacements"
	CtrSAMLookups        = "sam.lookups"
	CtrPAMUpdates        = "pam.updates"

	// CPU counters.
	CtrOpsCommitted   = "cpu.ops_committed"
	CtrLoadsCommitted = "cpu.loads"
	CtrStoresCommit   = "cpu.stores"
	CtrAtomicsCommit  = "cpu.atomics"
	CtrReducesCommit  = "cpu.reduces"
	CtrComputeCycles  = "cpu.compute_cycles"
	CtrStallCycles    = "cpu.stall_cycles"
	CtrCommitStalls   = "cpu.commit_stalls"

	// Simulation-level.
	CtrCycles = "sim.cycles"
)

// Counter describes one canonical counter for documentation and tooling.
type Counter struct {
	Name string
	Desc string
}

// Canonical returns every canonical counter with a one-line description,
// sorted by name. TestCanonicalCoversConstants keeps this list in lockstep
// with the Ctr* constants above; the fsrun -counters flag renders it as the
// markdown table embedded in the docs.
func Canonical() []Counter {
	out := []Counter{
		{CtrL1DAccesses, "L1D demand accesses (loads + stores + atomics)"},
		{CtrL1DHits, "L1D accesses served without a coherence transaction"},
		{CtrL1DMisses, "L1D accesses that started a coherence transaction"},
		{CtrL1DFills, "blocks installed into an L1D"},
		{CtrL1DEvicts, "blocks evicted from an L1D"},
		{CtrL1DWbDirty, "dirty L1D evictions written back"},
		{CtrLLCAccesses, "LLC slice lookups"},
		{CtrLLCHits, "LLC lookups hitting the data array"},
		{CtrLLCMisses, "LLC lookups missing to memory"},
		{CtrLLCFills, "blocks installed into the LLC"},
		{CtrLLCEvicts, "blocks evicted from the LLC"},
		{CtrDirInval, "invalidations issued by the directory"},
		{CtrDirInterv, "owner interventions (forwarded requests)"},
		{CtrDirFetchReq, "owner data fetches for recall/writeback"},
		{CtrDirPendingQ, "requests queued behind a busy directory line"},
		{CtrMemReads, "main-memory read accesses"},
		{CtrMemWrites, "main-memory write accesses"},
		{CtrNetMessages, "interconnect messages sent"},
		{CtrNetBytes, "interconnect payload bytes sent"},
		{CtrNetHops, "router-to-router link traversals (ring/mesh topologies)"},
		{CtrNetLinkWait, "cycles messages waited for busy NoC links (contention)"},
		{CtrNetInflightPeak, "peak messages simultaneously in flight (max on merge)"},
		{CtrDirPendqPeak, "peak depth of any directory pending queue (max on merge)"},
		{CtrFSDetected, "lines FSDetect classified as falsely shared"},
		{CtrFSPrivatized, "PRV episodes begun (lines privatized)"},
		{CtrFSPrivAborted, "privatization attempts aborted mid-flight"},
		{CtrFSTerminations, "PRV episodes terminated (all causes)"},
		{CtrFSTermConflict, "PRV terminations due to conflicting access"},
		{CtrFSTermEviction, "PRV terminations due to LLC eviction"},
		{CtrFSTermSAMEvict, "PRV terminations due to SAM replacement"},
		{CtrFSTermExternal, "PRV terminations due to external (non-core) access"},
		{CtrFSChkRequests, "GetCHK/GetXCHK byte-check requests"},
		{CtrFSMetadataMsgs, "metadata-class messages (PAM/SAM traffic)"},
		{CtrFSPhantomMsgs, "phantom messages (would-be misses under baseline)"},
		{CtrFSTrueSharing, "lines marked truly shared by the detector"},
		{CtrFSMetadataResets, "periodic PAM/SAM metadata resets"},
		{CtrFSHysteresisBlock, "re-privatizations blocked by hysteresis"},
		{CtrFSContended, "lines classified as contended truly-shared"},
		{CtrFSPrvMerges, "privatized per-core copies byte-merged back"},
		{CtrFSPrvCycles, "cycles lines spent privatized (summed over completed episodes)"},
		{CtrSAMReplacements, "SAM entries evicted while valid"},
		{CtrSAMLookups, "SAM table lookups"},
		{CtrPAMUpdates, "PAM metadata updates"},
		{CtrOpsCommitted, "instructions committed (all cores)"},
		{CtrLoadsCommitted, "loads committed"},
		{CtrStoresCommit, "stores committed"},
		{CtrAtomicsCommit, "atomic RMW operations committed"},
		{CtrReducesCommit, "reduction accumulations committed"},
		{CtrComputeCycles, "cycles cores spent in compute (not stalled)"},
		{CtrStallCycles, "cycles cores spent stalled on memory"},
		{CtrCommitStalls, "OOO commit-stage stalls"},
		{CtrCycles, "simulated cycles until workload completion"},
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
