package memsys

import (
	"fmt"
	"math/bits"
	"sort"
)

// Checkpoint support: SetAssoc and Memory expose exact-state save/restore so
// a drained machine can be serialized and later reconstructed bit-identically.
// SetAssoc state is captured per valid entry at its absolute slot index along
// with the LRU timestamp, pin bit and the global LRU clock — victim selection
// depends on exact way positions and relative timestamps, so both are
// preserved verbatim. The 8-slot MRU shortcut is deliberately NOT saved: it
// is a pure index cache whose hit path performs the same LRU refresh as the
// set scan, so starting it empty after a restore is behaviorally invisible.

// AssocEntry is one valid cache entry in an AssocImage. Index is the absolute
// slot (set*ways + way); Payload is the client's serializable projection of
// the per-line state.
type AssocEntry[S any] struct {
	Index   int
	Tag     Addr
	LastUse uint64
	Pinned  bool
	Payload S
}

// AssocImage is the serializable state of a SetAssoc cache. Entries are in
// ascending Index order, so images of identical caches are identical.
type AssocImage[S any] struct {
	Clock   uint64
	Entries []AssocEntry[S]
}

// SaveAssoc captures the exact replacement state of c. conv projects each
// live payload into its serializable form S (payloads may hold pointers or
// unexported state; S must be flat and encoder-friendly).
func SaveAssoc[V, S any](c *SetAssoc[V], conv func(*V) S) AssocImage[S] {
	img := AssocImage[S]{Clock: c.clock}
	for si, m := range c.occ {
		// Ascending way order within ascending sets is ascending Index.
		for ; m != 0; m &= m - 1 {
			w := bits.TrailingZeros64(m)
			e := &c.rows[si][w]
			img.Entries = append(img.Entries, AssocEntry[S]{
				Index:   si*c.ways + w,
				Tag:     e.Tag,
				LastUse: e.lastUse,
				Pinned:  c.pins[si]&(1<<uint(w)) != 0,
				Payload: conv(&e.Payload),
			})
		}
	}
	return img
}

// LoadAssoc restores c to the exact state captured by SaveAssoc, replacing
// all current contents. conv rebuilds each live payload from its serialized
// form. The cache geometry must match the one the image was saved from.
// Only the sets the image occupies get rows.
func LoadAssoc[V, S any](c *SetAssoc[V], img AssocImage[S], conv func(S) V) error {
	clear(c.rows)
	clear(c.occ)
	clear(c.pins)
	c.clock = img.Clock
	c.mruTags = [8]Addr{}
	c.mruEnts = [8]*Entry[V]{}
	for _, se := range img.Entries {
		if se.Index < 0 || se.Index >= c.Entries() {
			return fmt.Errorf("memsys: %s: restore entry index %d out of range (cache has %d entries — geometry mismatch?)",
				c.name, se.Index, c.Entries())
		}
		si, w := se.Index/c.ways, se.Index%c.ways
		if c.occ[si]&(1<<uint(w)) != 0 {
			return fmt.Errorf("memsys: %s: duplicate restore entry at index %d", c.name, se.Index)
		}
		c.row(si)[w] = Entry[V]{Valid: true, Tag: se.Tag, Payload: conv(se.Payload), lastUse: se.LastUse}
		c.occ[si] |= 1 << uint(w)
		if se.Pinned {
			c.pins[si] |= 1 << uint(w)
		}
	}
	return nil
}

// MemBlock is one allocated block of a Memory image.
type MemBlock struct {
	Addr Addr
	Data []byte
}

// Image captures every allocated block, sorted by address so identical
// memories produce identical images.
func (m *Memory) Image() []MemBlock {
	out := make([]MemBlock, 0, len(m.blocks))
	for a, b := range m.blocks {
		out = append(out, MemBlock{Addr: a, Data: append([]byte(nil), b...)})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Addr < out[j].Addr })
	return out
}

// RestoreImage replaces the memory's contents with the given image.
func (m *Memory) RestoreImage(blocks []MemBlock) error {
	m.blocks = make(map[Addr][]byte, len(blocks))
	for _, b := range blocks {
		if len(b.Data) != m.blockSize {
			return fmt.Errorf("memsys: restore block %v has %d bytes, memory block size is %d", b.Addr, len(b.Data), m.blockSize)
		}
		m.blocks[b.Addr] = append([]byte(nil), b.Data...)
	}
	return nil
}
