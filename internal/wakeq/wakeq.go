// Package wakeq is the simulator's wake-up queue: a tournament tree of
// cycles over a fixed set of components, each holding one key — the
// earliest cycle at which that component has work. The minimum is the
// root, a key moves in O(log n), and the components due at a cycle are
// found in index order without visiting the rest. The skip engine
// (internal/sim) keeps one per component class; the network keeps one over
// its inboxes' fronts.
package wakeq

// None is the key of a component with no wake-up.
const None = ^uint64(0)

// Tree is a min-tree over n keys, all None when built.
type Tree struct {
	n, size int      // keys, and leaves: a power of two >= n
	t       []uint64 // t[size+i] is key i; t[j] = min(t[2j], t[2j+1])
}

// New builds a tree of n keys.
func New(n int) Tree {
	size := 1
	for size < n {
		size *= 2
	}
	t := make([]uint64, 2*size)
	for i := range t {
		t[i] = None
	}
	return Tree{n: n, size: size, t: t}
}

// Min returns the smallest key (None when every key is None).
func (w *Tree) Min() uint64 { return w.t[1] }

// Set replaces key i.
func (w *Tree) Set(i int, k uint64) {
	j := w.size + i
	w.t[j] = k
	for j > 1 {
		j >>= 1
		m := min(w.t[2*j], w.t[2*j+1])
		if w.t[j] == m {
			return
		}
		w.t[j] = m
	}
}

// Lower lowers key i to k if k is smaller.
func (w *Tree) Lower(i int, k uint64) {
	for j := w.size + i; j >= 1 && w.t[j] > k; j >>= 1 {
		w.t[j] = k
	}
}

// SetAll sets every key to k.
func (w *Tree) SetAll(k uint64) {
	for i := 0; i < w.n; i++ {
		w.t[w.size+i] = k
	}
	for j := w.size - 1; j >= 1; j-- {
		w.t[j] = min(w.t[2*j], w.t[2*j+1])
	}
}

// Due appends to buf, in ascending index order, every i whose key is at
// most c, and returns the extended buffer.
func (w *Tree) Due(c uint64, buf []int32) []int32 {
	if w.t[1] > c {
		return buf
	}
	return w.due(1, c, buf)
}

func (w *Tree) due(j int, c uint64, buf []int32) []int32 {
	if j >= w.size {
		return append(buf, int32(j-w.size))
	}
	if w.t[2*j] <= c {
		buf = w.due(2*j, c, buf)
	}
	if w.t[2*j+1] <= c {
		buf = w.due(2*j+1, c, buf)
	}
	return buf
}
