package coherence_test

import (
	"fmt"
	"testing"

	. "fscoherence/internal/coherence"
	"fscoherence/internal/memsys"
	"fscoherence/internal/stats"
)

// valuePath commits accesses through one of the L1's entry points. core maps
// the i-th write of a sequence to the core that performs it: one core keeps
// its line in M, so every write hits; alternating cores makes each write a
// miss that pulls the line from the other core.
type valuePath struct {
	name string
	hit  bool
	do   func(h *harness, w *Warmer, c int, a Access) uint64
}

func (p valuePath) core(i int) int {
	if p.hit {
		return 0
	}
	return i % 2
}

var valuePaths = []valuePath{
	{"submit-hit", true, submitValue},
	{"submit-miss", false, submitValue},
	{"commithit", true, func(h *harness, w *Warmer, c int, a Access) uint64 {
		if a.Kind != AccessLoad && h.l1s[c].StateOf(a.Addr) != L1Modified {
			return submitValue(h, w, c, a) // CommitHit needs the line in M first
		}
		v, ok := h.l1s[c].CommitHit(&a, h.cycle)
		if !ok {
			h.t.Fatalf("CommitHit declined %v %v", a.Kind, a.Addr)
		}
		return v
	}},
	{"warm-hit", true, warmValue},
	{"warm-miss", false, warmValue},
}

// submitValue submits a on core c and waits for its Done.
func submitValue(h *harness, _ *Warmer, c int, a Access) uint64 {
	h.t.Helper()
	var got uint64
	done := false
	a.Done = func(v uint64) { got, done = v, true }
	h.submit(c, &a)
	h.run(100000, func() bool { return done })
	return got
}

func warmValue(_ *harness, w *Warmer, c int, a Access) uint64 {
	return w.Access(c, a.Kind, a.Addr, a.Size, a.Value, a.RMW)
}

// TestSubWordValues pins the value arithmetic of the one commit path: stores
// write the low Size bytes of Value, reductions and atomic adds wrap around
// at the access width (a carry out of the top byte is dropped), and an RMW
// result truncates to Size bytes — all at a nonzero block offset, with the
// bytes on either side of the word left alone. Expected contents come from a
// byte-wise model of the block, not from the little-endian helpers under
// test, and every access size goes through Submit (hit and miss), CommitHit
// and the Warmer.
func TestSubWordValues(t *testing.T) {
	const blk = memsys.Addr(0x40000)
	const off = 16
	for _, p := range valuePaths {
		for _, n := range []int{1, 2, 4, 8} {
			t.Run(fmt.Sprintf("%s/size%d", p.name, n), func(t *testing.T) {
				h := newHarness(t, Baseline, nil)
				w := NewWarmer(h.params, Baseline, h.l1s, h.dirs, h.mem)
				model := make([]byte, h.params.BlockSize)
				word := blk + off

				mask := uint64(1)<<(8*n) - 1 // Go shifts past 63 yield 0: n=8 is all ones
				junk := ^mask & 0x5a5a5a5a5a5a5a5a
				rmw := func(v uint64) uint64 { return v*3 + 0x77 }

				// Byte-wise references: little-endian bytes of v, and
				// ripple-carry addition into the model.
				storeBytes := func(at, size int, v uint64) {
					for i := 0; i < size; i++ {
						model[at+i] = byte(v >> (8 * i))
					}
				}
				addBytes := func(v uint64) {
					carry := 0
					for i := 0; i < n; i++ {
						s := int(model[off+i]) + int(byte(v>>(8*i))) + carry
						model[off+i], carry = byte(s), s>>8
					}
				}
				modelWord := func() uint64 {
					var v uint64
					for i := n - 1; i >= 0; i-- {
						v = v<<8 | uint64(model[off+i])
					}
					return v
				}

				ops := []struct {
					a     Access
					apply func()
				}{
					{a: Access{Kind: AccessStore, Addr: word - 1, Size: 1, Value: 0xa5}, apply: func() { storeBytes(off-1, 1, 0xa5) }},
					{a: Access{Kind: AccessStore, Addr: word + memsys.Addr(n), Size: 1, Value: 0x5a}, apply: func() { storeBytes(off+n, 1, 0x5a) }},
					{a: Access{Kind: AccessStore, Addr: word, Size: n, Value: 0x0123456789abcdef}, apply: func() { storeBytes(off, n, 0x0123456789abcdef) }},
					{a: Access{Kind: AccessStore, Addr: word, Size: n, Value: junk | mask}, apply: func() { storeBytes(off, n, mask) }},
					{a: Access{Kind: AccessReduce, Addr: word, Size: n, Value: junk | 1}, apply: func() { addBytes(1) }},
					{a: Access{Kind: AccessStore, Addr: word, Size: n, Value: mask}, apply: func() { storeBytes(off, n, mask) }},
					{a: Access{Kind: AccessAtomicRMW, Addr: word, Size: n, Value: 0x0202020202020202}, apply: func() { addBytes(0x0202020202020202) }},
					{a: Access{Kind: AccessAtomicRMW, Addr: word, Size: n, RMW: rmw}, apply: func() { storeBytes(off, n, rmw(modelWord())) }},
				}
				for i, op := range ops {
					c := p.core(i)
					want := uint64(0)
					if op.a.Kind == AccessAtomicRMW {
						want = modelWord()
					}
					op.apply()
					hits := h.st.GetID(stats.IDL1DHits)
					got := p.do(h, w, c, op.a)
					if got != want {
						t.Errorf("op %d (%v size %d): returned %#x, want %#x", i, op.a.Kind, op.a.Size, got, want)
					}
					if i >= 2 { // the sentinel stores only bring the line in
						if hit := h.st.GetID(stats.IDL1DHits) > hits; hit != p.hit {
							t.Errorf("op %d (%v): hit=%v, want %v", i, op.a.Kind, hit, p.hit)
						}
					}
					// Read back on the same core, which holds the line in M,
					// so the reads leave the next write's path unchanged.
					for b := off - 1; b <= off+n; b++ {
						ld := Access{Kind: AccessLoad, Addr: blk + memsys.Addr(b), Size: 1}
						if v := p.do(h, w, c, ld); v != uint64(model[b]) {
							t.Errorf("op %d (%v): byte %d = %#x, want %#x", i, op.a.Kind, b, v, model[b])
						}
					}
					if v := p.do(h, w, c, Access{Kind: AccessLoad, Addr: word, Size: n}); v != modelWord() {
						t.Errorf("op %d (%v): word = %#x, want %#x", i, op.a.Kind, v, modelWord())
					}
				}
			})
		}
	}
}
