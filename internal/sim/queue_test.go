package sim

import (
	"math/rand"
	"reflect"
	"testing"

	"fscoherence/internal/coherence"
	"fscoherence/internal/network"
	"fscoherence/internal/wakeq"
)

// scanQueue is the brute-force model of the wake-up queue: every
// component's own wake-up and every queued arrival, with the due set found
// by scanning them all, the way the skip loop did before the queue.
type scanQueue struct {
	sliceNext, pairNext []uint64
	arrivals            map[network.NodeID][]uint64 // per node, unordered
	sliceNode, pairNode []network.NodeID
}

func (m *scanQueue) front(n network.NodeID) uint64 {
	f := wakeq.None
	for _, a := range m.arrivals[n] {
		f = min(f, a)
	}
	return f
}

// due lists, in naive tick order, the slices and then the pairs with work
// at or before c.
func (m *scanQueue) due(c uint64) (slices, pairs []int32) {
	for j, v := range m.sliceNext {
		if min(v, m.front(m.sliceNode[j])) <= c {
			slices = append(slices, int32(j))
		}
	}
	for i, v := range m.pairNext {
		if min(v, m.front(m.pairNode[i])) <= c {
			pairs = append(pairs, int32(i))
		}
	}
	return slices, pairs
}

func (m *scanQueue) next() uint64 {
	w := wakeq.None
	for j, v := range m.sliceNext {
		w = min(w, v, m.front(m.sliceNode[j]))
	}
	for i, v := range m.pairNext {
		w = min(w, v, m.front(m.pairNode[i]))
	}
	return w
}

// consume removes the arrivals at node n deliverable at c, up to limit of
// them (a tick's per-cycle cap), as a tick drains its inbox.
func (m *scanQueue) consume(n network.NodeID, c uint64, limit int) {
	var left []uint64
	for _, a := range m.arrivals[n] {
		if a <= c && limit > 0 {
			limit--
			continue
		}
		left = append(left, a)
	}
	m.arrivals[n] = left
}

// TestQueueMatchesScan drives the wake-up queue and the brute-force scan
// through the same random run — sends at random later cycles, steps that
// tick every due component, which drains some of its inbox and takes a new
// wake-up (sometimes none, sometimes leftover work in the same cycle) — and
// requires the same due set, in naive order, and the same next wake-up at
// every step.
func TestQueueMatchesScan(t *testing.T) {
	for _, shape := range []struct{ cores, slices int }{{8, 8}, {16, 4}, {5, 3}, {1, 1}} {
		p := testConfig(coherence.Baseline).Params
		p.Cores, p.Slices = shape.cores, shape.slices
		rng := rand.New(rand.NewSource(int64(shape.cores*100 + shape.slices)))
		q := newQueue(p)
		m := &scanQueue{
			sliceNext: make([]uint64, p.Slices),
			pairNext:  make([]uint64, p.Cores),
			arrivals:  map[network.NodeID][]uint64{},
		}
		for j := 0; j < p.Slices; j++ {
			m.sliceNode = append(m.sliceNode, p.SliceNode(j))
		}
		for i := 0; i < p.Cores; i++ {
			m.pairNode = append(m.pairNode, p.L1Node(i))
		}
		// Every component starts due, as after wakeAll.
		q.slices.SetAll(0)
		q.pairs.SetAll(0)
		wake := func() uint64 {
			if rng.Intn(10) < 3 {
				return wakeq.None
			}
			return uint64(rng.Intn(40)) + 1
		}
		send := func(c uint64) {
			n := network.NodeID(rng.Intn(p.Nodes()))
			at := c + 1 + uint64(rng.Intn(30))
			m.arrivals[n] = append(m.arrivals[n], at)
			q.Wake(n, at)
		}
		c := uint64(0)
		for step := 0; step < 3000; step++ {
			c++
			if rng.Intn(4) == 0 {
				send(c - 1) // from outside any tick, such as a test hook
			}
			wantS, wantP := m.due(c)
			gotS := q.slices.Due(c, nil)
			gotP := q.pairs.Due(c, nil)
			if !reflect.DeepEqual(gotS, wantS) || !reflect.DeepEqual(gotP, wantP) {
				t.Fatalf("%v cycle %d: due slices %v pairs %v, scan %v %v", shape, c, gotS, gotP, wantS, wantP)
			}
			// Tick the due components in naive order; each may send, and
			// ends with a new wake-up: none, later, or (rarely) leftover
			// work that keeps it due.
			for _, j := range gotS {
				m.consume(p.SliceNode(int(j)), c, 1+rng.Intn(3))
				for k := rng.Intn(3); k > 0; k-- {
					send(c)
				}
				v := wake()
				if v != wakeq.None {
					v += c - 1
				}
				m.sliceNext[j] = v
				q.slices.Set(int(j), min(v, m.front(p.SliceNode(int(j)))))
			}
			for _, i := range gotP {
				m.consume(p.L1Node(int(i)), c, 1+rng.Intn(3))
				for k := rng.Intn(2); k > 0; k-- {
					send(c)
				}
				v := wake()
				if v != wakeq.None {
					v += c
				}
				m.pairNext[i] = v
				q.pairs.Set(int(i), min(v, m.front(p.L1Node(int(i)))))
			}
			if got, want := q.next(), m.next(); got != want {
				t.Fatalf("%v cycle %d: next wake-up %d, scan %d", shape, c, got, want)
			}
			// Skip ahead as the engine would, now and then to the next
			// wake-up itself.
			if w := m.next(); w != wakeq.None && w > c+1 && rng.Intn(2) == 0 {
				c = w - 1
			}
		}
	}
}
