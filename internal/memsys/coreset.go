package memsys

import (
	"math/bits"
	"strconv"
)

// MaxCores is the largest machine the simulator models. Sharer vectors,
// SAM reader sets and reduction-writer sets are fixed-width bitsets of this
// many bits, so raising it is a recompile, not a format change.
const MaxCores = 256

// coreSetWords is the number of 64-bit words backing a CoreSet.
const coreSetWords = MaxCores / 64

// CoreSet is a fixed-width bitset of core indices [0, MaxCores). The zero
// value is the empty set; CoreSet is a value type (assignment copies), which
// directory transactions rely on when they snapshot sharer vectors.
type CoreSet [coreSetWords]uint64

// Has reports whether core c is in the set.
func (s *CoreSet) Has(c int) bool { return s[c>>6]&(1<<uint(c&63)) != 0 }

// Add inserts core c.
func (s *CoreSet) Add(c int) { s[c>>6] |= 1 << uint(c&63) }

// Remove deletes core c.
func (s *CoreSet) Remove(c int) { s[c>>6] &^= 1 << uint(c&63) }

// Union adds every member of o.
func (s *CoreSet) Union(o *CoreSet) {
	for i := range s {
		s[i] |= o[i]
	}
}

// Count returns the number of cores in the set.
func (s *CoreSet) Count() int {
	n := 0
	for _, w := range s {
		n += bits.OnesCount64(w)
	}
	return n
}

// Empty reports whether the set has no members.
func (s *CoreSet) Empty() bool {
	for _, w := range s {
		if w != 0 {
			return false
		}
	}
	return true
}

// HasOther reports whether the set contains any core besides c.
func (s *CoreSet) HasOther(c int) bool {
	for i, w := range s {
		if i == c>>6 {
			w &^= 1 << uint(c&63)
		}
		if w != 0 {
			return true
		}
	}
	return false
}

// ForEach calls fn for every member in ascending core order.
func (s *CoreSet) ForEach(fn func(c int)) {
	for i, w := range s {
		base := i << 6
		for w != 0 {
			c := bits.TrailingZeros64(w)
			w &^= 1 << uint(c)
			fn(base + c)
		}
	}
}

// String renders the set as a binary literal (least-significant core on the
// right), matching the old %b formatting of single-word sharer vectors when
// all members fit in 64 bits.
func (s *CoreSet) String() string {
	hi := coreSetWords - 1
	for hi > 0 && s[hi] == 0 {
		hi--
	}
	out := strconv.FormatUint(s[hi], 2)
	for i := hi - 1; i >= 0; i-- {
		w := strconv.FormatUint(s[i], 2)
		out += "_" + zeros64[len(w):] + w
	}
	return out
}

const zeros64 = "0000000000000000000000000000000000000000000000000000000000000000"
