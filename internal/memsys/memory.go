package memsys

import "strconv"

// Memory is a flat physical memory with lazily allocated cache-block-sized
// chunks. Unwritten bytes read as zero.
type Memory struct {
	blockSize int
	blocks    map[Addr][]byte
}

// NewMemory returns an empty memory using the given block size.
func NewMemory(blockSize int) *Memory {
	if !IsPow2(blockSize) {
		panic("memsys: memory block size must be a power of two")
	}
	return &Memory{blockSize: blockSize, blocks: make(map[Addr][]byte)}
}

// BlockSize returns the block size in bytes.
func (m *Memory) BlockSize() int { return m.blockSize }

// ReadBlock returns a copy of the block containing a.
func (m *Memory) ReadBlock(a Addr) []byte {
	a = a.BlockAlign(m.blockSize)
	out := make([]byte, m.blockSize)
	if b, ok := m.blocks[a]; ok {
		copy(out, b)
	}
	return out
}

// WriteBlock stores data (len == blockSize) as the block containing a.
func (m *Memory) WriteBlock(a Addr, data []byte) {
	if len(data) != m.blockSize {
		panic("memsys: WriteBlock length mismatch")
	}
	a = a.BlockAlign(m.blockSize)
	b, ok := m.blocks[a]
	if !ok {
		b = make([]byte, m.blockSize)
		m.blocks[a] = b
	}
	copy(b, data)
}

// ReadByte returns the byte at a.
func (m *Memory) ByteAt(a Addr) byte {
	b, ok := m.blocks[a.BlockAlign(m.blockSize)]
	if !ok {
		return 0
	}
	return b[a.BlockOffset(m.blockSize)]
}

// WriteByte stores v at address a.
func (m *Memory) SetByte(a Addr, v byte) {
	ba := a.BlockAlign(m.blockSize)
	b, ok := m.blocks[ba]
	if !ok {
		b = make([]byte, m.blockSize)
		m.blocks[ba] = b
	}
	b[a.BlockOffset(m.blockSize)] = v
}

// BlockSlice returns the live storage of the block containing a, allocating
// it if needed. Unlike ReadBlock it does not copy: writes through the slice
// update memory directly, and the slice is invalidated by nothing (blocks are
// never freed). The functional-warming fast path uses it to touch block bytes
// without a copy per access.
func (m *Memory) BlockSlice(a Addr) []byte {
	ba := a.BlockAlign(m.blockSize)
	b, ok := m.blocks[ba]
	if !ok {
		b = make([]byte, m.blockSize)
		m.blocks[ba] = b
	}
	return b
}

// BlocksAllocated returns how many distinct blocks have been touched.
func (m *Memory) BlocksAllocated() int { return len(m.blocks) }

// version records one committed value of a byte and the cycle from which it
// was live (until the next version's from-cycle).
type version struct {
	val  byte
	from uint64
}

// maxVersions bounds the per-byte history. A load's serialization window
// spans at most one miss round-trip, so a byte would need this many distinct
// committed values inside a single miss to defeat the bound; overflow drops
// the oldest version (extending its successor's span backwards — a
// conservative accept, never a false violation).
const maxVersions = 96

// oracleBlock tracks per-byte current value plus a bounded history of
// committed versions. hist[i] is append-only in commit-cycle order; the byte
// implicitly holds zero from cycle 0 until its first committed version.
type oracleBlock struct {
	cur  []byte
	hist [][]version
}

// commit records v as byte i's value from cycle onward. A rewrite of the
// same value extends the live span rather than splitting it.
func (b *oracleBlock) commit(i int, v byte, cycle uint64) {
	if v == b.cur[i] {
		return
	}
	h := b.hist[i]
	if len(h) >= maxVersions {
		copy(h, h[1:])
		h = h[:len(h)-1]
	}
	b.hist[i] = append(h, version{val: v, from: cycle})
	b.cur[i] = v
}

// liveDuring reports whether byte i held value v at some cycle in [issue,
// commit]. Versions are walked newest to oldest; interval boundaries are
// treated inclusively on both sides, which preserves the cycle-granularity
// tie tolerance: a load and a store committing in the same cycle are
// unordered at cycle resolution, so both the old and the new value pass.
func (b *oracleBlock) liveDuring(i int, v byte, issue, commit uint64) bool {
	h := b.hist[i]
	end := ^uint64(0)
	for k := len(h) - 1; k >= -1; k-- {
		var val byte
		var from uint64
		if k >= 0 {
			val, from = h[k].val, h[k].from
		}
		if from > commit {
			// Version became live after the window closed; the window can
			// only see its predecessors.
			end = from
			continue
		}
		// This version was live during [from, end); the window intersects it.
		if val == v && end >= issue {
			return true
		}
		if from < issue {
			// Every older version's span ends strictly before the window.
			return false
		}
		end = from
	}
	return false
}

// Oracle is a byte-granular golden memory used by tests. The simulator
// updates it at the exact simulated cycle a store commits. A load is checked
// against every value the byte held during the load's serialization window
// [issue, commit]: a miss-path load binds its value when the directory
// serializes the request, which can be many cycles before the data message
// arrives and the load commits. Under uniform network latency the bound
// value is always still current at commit, but latency jitter (the fault
// injector) legally delays the data past younger stores' commits — see
// PROTOCOL.md §"Network ordering contract". Because the baseline protocol is
// MESI with blocking cores and privatized lines are single-writer per byte,
// each byte's committed values form a total order, so the window check is
// exact, not an approximation.
type Oracle struct {
	blockSize int
	blocks    map[Addr]*oracleBlock
	// violations accumulates mismatch descriptions (tests assert empty).
	violations []string
}

// NewOracle returns an empty oracle with the given block size.
func NewOracle(blockSize int) *Oracle {
	return &Oracle{blockSize: blockSize, blocks: make(map[Addr]*oracleBlock)}
}

func (o *Oracle) block(a Addr) *oracleBlock {
	ba := a.BlockAlign(o.blockSize)
	b := o.blocks[ba]
	if b == nil {
		b = &oracleBlock{
			cur:  make([]byte, o.blockSize),
			hist: make([][]version, o.blockSize),
		}
		o.blocks[ba] = b
	}
	return b
}

// CommitStore records that a store of value bytes at address a committed at
// the given cycle.
func (o *Oracle) CommitStore(a Addr, value []byte, cycle uint64) {
	b := o.block(a)
	off := a.BlockOffset(o.blockSize)
	for i, v := range value {
		b.commit(off+i, v, cycle)
	}
}

// CommitReduce records a commutative accumulation at address a: the oracle
// adds the little-endian delta rather than overwriting, because reduction
// commits interleave in an arbitrary (but sum-preserving) order.
func (o *Oracle) CommitReduce(a Addr, delta []byte, cycle uint64) {
	b := o.block(a)
	off := a.BlockOffset(o.blockSize)
	var carry uint16
	for i := range delta {
		s := uint16(b.cur[off+i]) + uint16(delta[i]) + carry
		carry = s >> 8
		b.commit(off+i, byte(s), cycle)
	}
}

// CheckLoad verifies the observed bytes for a load whose serialization point
// coincides with its commit cycle (hits and RMW reads under exclusive
// ownership). It is CheckLoadWindow with a single-cycle window.
func (o *Oracle) CheckLoad(a Addr, observed []byte, cycle uint64, context string) bool {
	return o.CheckLoadWindow(a, observed, cycle, cycle, context)
}

// CheckLoadWindow verifies the observed bytes for a load that issued at
// cycle issue and committed at cycle commit: each byte must match some value
// the byte held during [issue, commit]. It records a violation per
// mismatching byte and reports whether the whole load matched.
func (o *Oracle) CheckLoadWindow(a Addr, observed []byte, issue, commit uint64, context string) bool {
	b := o.block(a)
	off := a.BlockOffset(o.blockSize)
	ok := true
	for i, v := range observed {
		if b.liveDuring(off+i, v, issue, commit) {
			continue
		}
		ok = false
		if len(o.violations) < 32 {
			o.violations = append(o.violations,
				context+": addr "+(a+Addr(i)).String()+
					": got "+hexByte(v)+" want "+hexByte(b.cur[off+i])+
					" (no version matches in window ["+
					strconv.FormatUint(issue, 10)+", "+strconv.FormatUint(commit, 10)+"])")
		}
	}
	return ok
}

// LoadLive reports whether every observed byte matches some value the byte
// held during [issue, commit], recording nothing. A caller whose violation
// context is costly to build checks with LoadLive first and formats the
// context for CheckLoadWindow only when it fails.
func (o *Oracle) LoadLive(a Addr, observed []byte, issue, commit uint64) bool {
	b := o.block(a)
	off := a.BlockOffset(o.blockSize)
	for i, v := range observed {
		if !b.liveDuring(off+i, v, issue, commit) {
			return false
		}
	}
	return true
}

// Expected returns the oracle's current value of the byte at a.
func (o *Oracle) Expected(a Addr) byte {
	b := o.blocks[a.BlockAlign(o.blockSize)]
	if b == nil {
		return 0
	}
	return b.cur[a.BlockOffset(o.blockSize)]
}

// Violations returns the recorded mismatches (empty in a correct run).
func (o *Oracle) Violations() []string { return o.violations }

func hexByte(b byte) string {
	const digits = "0123456789abcdef"
	return "0x" + string([]byte{digits[b>>4], digits[b&0xf]})
}
