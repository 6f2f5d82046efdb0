package coherence

import (
	"fmt"

	"fscoherence/internal/memsys"
)

// L1State is the stable coherence state of an L1 cache line.
type L1State int

const (
	L1Invalid L1State = iota
	L1Shared
	L1Exclusive
	L1Modified
	L1Prv // FSLite privatized state (§V)
)

func (s L1State) String() string {
	switch s {
	case L1Invalid:
		return "I"
	case L1Shared:
		return "S"
	case L1Exclusive:
		return "E"
	case L1Modified:
		return "M"
	case L1Prv:
		return "PRV"
	}
	return "?"
}

// DirState is the stable state of a directory entry (cache-centric notation:
// the directory/LLC is the owner for DirIdle blocks).
type DirState int

const (
	DirIdle   DirState = iota // LLC owns the only copy (no L1 caches it)
	DirShared                 // one or more L1s hold S copies; LLC data valid
	DirOwned                  // one L1 holds E/M; LLC data possibly stale
	DirPrv                    // FSLite: block privatized across PRV sharers
)

func (s DirState) String() string {
	switch s {
	case DirIdle:
		return "I"
	case DirShared:
		return "S"
	case DirOwned:
		return "M"
	case DirPrv:
		return "PRV"
	}
	return "?"
}

// AddrRange is a half-open range of simulated addresses, used to declare
// reduction regions (§VII: privatization-accelerated parallel reductions).
type AddrRange struct {
	Start memsys.Addr
	Size  int
}

// Contains reports whether the block containing a overlaps the range.
func (r AddrRange) Contains(a memsys.Addr, blockSize int) bool {
	blk := a.BlockAlign(blockSize)
	return blk+memsys.Addr(blockSize) > r.Start && blk < r.Start+memsys.Addr(r.Size)
}

// AccessKind distinguishes the memory operations the CPU can issue.
type AccessKind int

const (
	AccessLoad AccessKind = iota
	AccessStore
	AccessAtomicRMW // atomic read-modify-write (test-and-set, fetch-add, ...)
	AccessPrefetch  // fetch the block in S without touching any byte

	// AccessReduce is a commutative accumulation (+= Value) into a word of
	// a declared reduction region (§VII). Under FSLite the region's lines
	// privatize even though every core writes the same words: each core
	// accumulates locally and the directory merges the per-core deltas
	// into the LLC copy when the episode ends.
	AccessReduce
)

func (k AccessKind) String() string {
	switch k {
	case AccessLoad:
		return "load"
	case AccessStore:
		return "store"
	case AccessAtomicRMW:
		return "atomic"
	case AccessPrefetch:
		return "prefetch"
	case AccessReduce:
		return "reduce"
	}
	return "?"
}

// Access is one demand memory operation submitted by a core to its L1
// controller. Accesses never cross a cache-line boundary. Values are
// little-endian integers of Size bytes: a commit writes the low Size bytes of
// its result, so arithmetic wraps around at the access width.
type Access struct {
	Kind AccessKind
	Addr memsys.Addr
	Size int // 1, 2, 4 or 8 bytes (0 for prefetch)

	// Value is the value to write for AccessStore, the accumulation amount
	// for AccessReduce and the addend of an AccessAtomicRMW whose RMW is nil.
	Value uint64

	// RMW computes the new value from the old for AccessAtomicRMW; nil adds
	// Value (the AtomicAdd rule). It must be a pure function; it runs exactly
	// once, at the commit point.
	RMW func(old uint64) uint64

	// Done is invoked when the access commits. It receives the value read
	// for loads and atomics (for atomics, the pre-RMW value) and 0 otherwise.
	Done func(v uint64)
}

// Validate panics if the access is malformed (crossing a line, bad size).
func (a *Access) Validate(blockSize int) {
	switch a.Kind {
	case AccessPrefetch:
		return
	case AccessLoad, AccessStore, AccessAtomicRMW, AccessReduce:
	default:
		panic(fmt.Sprintf("coherence: bad access kind %d", a.Kind))
	}
	if a.Size != 1 && a.Size != 2 && a.Size != 4 && a.Size != 8 {
		panic(fmt.Sprintf("coherence: bad access size %d", a.Size))
	}
	if a.Addr.BlockOffset(blockSize)+a.Size > blockSize {
		panic(fmt.Sprintf("coherence: access crosses line: %v size %d", a.Addr, a.Size))
	}
}

// IsWrite reports whether the access needs write permission.
func (a *Access) IsWrite() bool {
	return a.Kind == AccessStore || a.Kind == AccessAtomicRMW || a.Kind == AccessReduce
}

// ---------------------------------------------------------------------------
// Policy interfaces implemented by package core (the paper's contribution).
// A nil policy yields the unmodified baseline protocol.
// ---------------------------------------------------------------------------

// L1Policy is the per-core private-access-metadata (PAM table) side of
// FSDetect/FSLite (§IV). The L1 controller notifies it of every architectural
// event that reads or mutates private metadata.
type L1Policy interface {
	// OnAccess records read/write bits for a committed demand access to a
	// resident line.
	OnAccess(addr memsys.Addr, off, size int, write bool)

	// HasBits reports whether the PAM entry already covers [off,off+size)
	// with read (write=false) or write (write=true) bits — the PRV local-hit
	// check of §V-B.
	HasBits(addr memsys.Addr, off, size int, write bool) bool

	// SetSendMD sets or clears the SEND_MD bit of the block's PAM entry.
	SetSendMD(addr memsys.Addr, v bool)

	// TakeEntry returns the PAM read/write bit-vectors and the SEND_MD bit
	// for the block, then clears the entry (used when metadata must be
	// shipped to the directory). ok is false if no entry exists.
	TakeEntry(addr memsys.Addr) (mdRead, mdWrite uint64, sendMD, ok bool)

	// PeekSendMD reports the SEND_MD bit without clearing the entry.
	PeekSendMD(addr memsys.Addr) bool

	// PeekEntry returns the PAM bit-vectors without clearing the entry (used
	// on a Get intervention, where the core keeps its copy in S).
	PeekEntry(addr memsys.Addr) (mdRead, mdWrite uint64, ok bool)

	// Drop invalidates the PAM entry without reading it (silent clean
	// eviction with SEND_MD clear, or invalidation).
	Drop(addr memsys.Addr)

	// Allocate creates a fresh PAM entry for a newly filled line with the
	// given SEND_MD value.
	Allocate(addr memsys.Addr, sendMD bool)

	// Has reports whether a PAM entry exists for the block containing addr.
	// Invariant (checked at sampling window boundaries): an entry exists
	// exactly while the block is resident in the core's L1D.
	Has(addr memsys.Addr) bool

	// Entries returns the number of live PAM entries.
	Entries() int
}

// ConflictKind reports the outcome of a directory-side byte conflict check.
type ConflictKind int

const (
	NoConflict ConflictKind = iota
	ReadWriteConflict
	WriteWriteConflict
)

// DirPolicy is the directory-side metadata and decision logic: the SAM table,
// FC/IC/PMMC/HC counters, true-sharing inference and the privatization
// policy. Implemented by package core; the directory controller invokes it on
// protocol events and obeys its decisions.
type DirPolicy interface {
	// OnFetchRequest is called when a Get/GetX/Upgrade for addr arrives from
	// core. It updates FC and returns directives: requestMD asks the
	// controller to set REQ_MD on interventions/invalidations for this
	// transaction; privatize asks it to begin privatization (FSLite only,
	// and only when the block currently has owner/sharers).
	OnFetchRequest(addr memsys.Addr, core int) (requestMD, privatize bool)

	// OnInvalidationsSent is called when the directory sends n invalidation
	// or intervention messages for addr (updates IC).
	OnInvalidationsSent(addr memsys.Addr, n int)

	// OnMetadataRequested is called when a message with REQ_MD set is sent
	// (increments PMMC).
	OnMetadataRequested(addr memsys.Addr, n int)

	// OnRepMD processes a REP_MD from core carrying PAM bit-vectors; it
	// updates the SAM entry and TS bit, and decrements PMMC.
	OnRepMD(addr memsys.Addr, core int, mdRead, mdWrite uint64)

	// OnMDPhantom processes a dataless phantom metadata message (§V-D):
	// decrements PMMC without touching the SAM entry.
	OnMDPhantom(addr memsys.Addr)

	// PendingMetadata returns the current PMMC value for addr.
	PendingMetadata(addr memsys.Addr) int

	// TrueSharing reports whether the TS bit is set for addr.
	TrueSharing(addr memsys.Addr) bool

	// WantMetadata reports whether interventions/invalidations for addr
	// should carry REQ_MD (TS bit unset, §IV). Unlike OnFetchRequest it has
	// no counter side effects (used for retried requests).
	WantMetadata(addr memsys.Addr) bool

	// MarkTrueSharing records a true-sharing conflict detected by the
	// directory controller itself (a conflicting grant or CHK check): sets
	// the TS bit and bumps the hysteresis counter (§VI).
	MarkTrueSharing(addr memsys.Addr)

	// CheckBytes performs the §V-B conflict check for core touching
	// [off,off+size) of addr (write or read). It does not record anything.
	// A zero-length range (prefetch) never conflicts.
	CheckBytes(addr memsys.Addr, core int, off, size int, write bool) ConflictKind

	// RecordBytes records core as reader/writer of [off,off+size) in the SAM
	// entry after a successful check.
	RecordBytes(addr memsys.Addr, core int, off, size int, write bool)

	// OnPrivatize is called when privatization of addr commits: the SAM
	// entry is reset and FC/IC disabled for the PRV episode.
	OnPrivatize(addr memsys.Addr)

	// OnTerminate is called when the privatized episode of addr ends; the
	// SAM entry and FC/IC are cleared so FSDetect restarts cleanly.
	OnTerminate(addr memsys.Addr)

	// MergeMask returns a packed per-byte mask: bit b is set iff the SAM
	// entry's valid last writer of byte b is core (the §V-C/§V-D byte-merge
	// rule). Packing the mask into a word lets the merge walk set bits with
	// bits.TrailingZeros64 instead of scanning all 64 bytes; it requires
	// BlockSize <= 64, which core.Config.validate enforces.
	MergeMask(addr memsys.Addr, core int) uint64

	// OnPrvEviction removes core from the last-writer positions it owns
	// (after its PrvWB has been merged) per §V-D.
	OnPrvEviction(addr memsys.Addr, core int)

	// OnDirEviction is called when the directory entry / LLC block for addr
	// is evicted; all metadata for addr is dropped.
	OnDirEviction(addr memsys.Addr)

	// TakeForcedTerminations drains the list of privatized blocks whose SAM
	// entry was evicted (§V-C: the controller must terminate them).
	TakeForcedTerminations() []memsys.Addr

	// RegisterReduction declares an address range whose words are updated
	// only through commutative accumulations (§VII): write-write overlap
	// within the range is not true sharing, and privatized copies merge by
	// summing per-core deltas.
	RegisterReduction(r AddrRange)

	// ReduceMask returns a packed per-byte mask of the bytes where core is
	// recorded as a reduction writer (the delta-merge positions), with the
	// same bit-b-is-byte-b packing as MergeMask.
	ReduceMask(addr memsys.Addr, core int) uint64

	// HasSAMEntry reports whether a valid SAM entry exists for the block
	// containing addr (window-boundary agreement checks: privatized blocks
	// must keep their pinned SAM entry for the whole PRV episode).
	HasSAMEntry(addr memsys.Addr) bool
}
