package cpu

import (
	"fscoherence/internal/coherence"
)

// accessSlot is a reusable coherence.Access plus the operation context its
// callback needs. The Done closure is allocated once per slot (at
// construction) and closes only over the slot, so issuing a memory operation
// performs no heap allocation. A slot may be reused as soon as its Done
// callback has fired: the L1 drops the Access when the transaction
// completes.
type accessSlot struct {
	ent  *robEntry // OOO bookkeeping (nil for the in-order core)
	sync bool      // OOO: thread consumes the result
	acc  coherence.Access

	// fin receives the result when the access commits; set once by the
	// owning core.
	fin func(v uint64, s *accessSlot)
}

// newAccessSlot builds a slot completing into fin. The Done closure bound
// here is the only allocation a slot ever makes.
func newAccessSlot(fin func(uint64, *accessSlot)) *accessSlot {
	s := &accessSlot{fin: fin}
	s.acc.Done = func(v uint64) { s.fin(v, s) }
	return s
}

// prepare populates the slot's Access for op and returns it.
func (s *accessSlot) prepare(op Op) *coherence.Access {
	a := &s.acc
	a.Addr, a.Size, a.Value, a.RMW = op.Addr, op.Size, op.Value, op.Fn
	switch op.Kind {
	case OpLoad:
		a.Kind = coherence.AccessLoad
	case OpStore:
		a.Kind = coherence.AccessStore
	case OpAtomic:
		a.Kind = coherence.AccessAtomicRMW
	case OpPrefetch:
		a.Kind = coherence.AccessPrefetch
	case OpReduce:
		a.Kind = coherence.AccessReduce
	default:
		panic("cpu: bad op kind for access")
	}
	return a
}
