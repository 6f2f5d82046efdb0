package coherence_test

import (
	"testing"

	. "fscoherence/internal/coherence"
	"fscoherence/internal/core"
	"fscoherence/internal/memsys"
	"fscoherence/internal/network"
	"fscoherence/internal/stats"
)

// harness wires L1s, one-or-more directory slices and a network for direct
// protocol-level testing: accesses are submitted straight to the L1s and the
// harness steps cycles until they complete.
type harness struct {
	t      *testing.T
	params Params
	mode   Protocol
	st     *stats.Set
	net    *network.Network
	mem    *memsys.Memory
	l1s    []*L1
	dirs   []*Dir
	pols   []*core.DirSide
	cycle  uint64
}

// newHarness builds a small system: 4 cores, 1 slice, tiny-but-roomy caches.
func newHarness(t *testing.T, mode Protocol, mutate func(*Params, *core.Config)) *harness {
	p := DefaultParams()
	p.Cores = 4
	p.Slices = 1
	p.L1Entries = 64
	p.L1Ways = 4
	p.LLCEntriesSlice = 256
	p.LLCWays = 8
	cc := core.DefaultConfig(p.Cores, p.BlockSize, mode)
	cc.TauP = 4 // fast privatization in tests
	cc.TauR1 = 4
	if mutate != nil {
		mutate(&p, &cc)
	}
	h := &harness{t: t, params: p, mode: mode, st: stats.NewSet()}
	h.net = network.New(p.Nodes(), p.NetLatency, p.BlockSize, h.st)
	h.mem = memsys.NewMemory(p.BlockSize)
	for i := 0; i < p.Cores; i++ {
		var pol L1Policy
		if mode != Baseline {
			pol = core.NewPAM(cc, i, h.st)
		}
		h.l1s = append(h.l1s, NewL1(i, p, mode, h.net, pol, h.st, nil))
	}
	for s := 0; s < p.Slices; s++ {
		var pol DirPolicy
		if mode != Baseline {
			ds := core.NewDirSide(cc, s, h.st)
			h.pols = append(h.pols, ds)
			pol = ds
		}
		h.dirs = append(h.dirs, NewDir(s, p, mode, h.net, h.mem, pol, h.st))
	}
	return h
}

// step advances one cycle.
func (h *harness) step() {
	h.cycle++
	h.net.SetCycle(h.cycle)
	for _, d := range h.dirs {
		d.Tick(h.cycle)
	}
	for _, l := range h.l1s {
		l.Tick(h.cycle)
	}
}

// run steps until cond holds, failing after maxCycles.
func (h *harness) run(maxCycles int, cond func() bool) {
	h.t.Helper()
	for i := 0; i < maxCycles; i++ {
		if cond() {
			return
		}
		h.step()
	}
	h.t.Fatalf("condition not reached within %d cycles", maxCycles)
}

// settle steps until the whole system is idle.
func (h *harness) settle() {
	h.t.Helper()
	h.run(100000, func() bool {
		if h.net.Pending() != 0 {
			return false
		}
		for _, l := range h.l1s {
			if !l.Idle() {
				return false
			}
		}
		for _, d := range h.dirs {
			if !d.Idle() {
				return false
			}
		}
		return true
	})
}

// load performs a blocking load on core c.
func (h *harness) load(c int, a memsys.Addr, size int) uint64 {
	h.t.Helper()
	var val uint64
	done := false
	acc := &Access{Kind: AccessLoad, Addr: a, Size: size, Done: func(v uint64) {
		done = true
		val = v
	}}
	h.submit(c, acc)
	h.run(100000, func() bool { return done })
	return val
}

// store performs a blocking store on core c.
func (h *harness) store(c int, a memsys.Addr, size int, v uint64) {
	h.t.Helper()
	done := false
	acc := &Access{Kind: AccessStore, Addr: a, Size: size, Value: v,
		Done: func(uint64) { done = true }}
	h.submit(c, acc)
	h.run(100000, func() bool { return done })
}

// prefetch performs a blocking prefetch on core c.
func (h *harness) prefetch(c int, a memsys.Addr) {
	h.t.Helper()
	done := false
	acc := &Access{Kind: AccessPrefetch, Addr: a, Done: func(uint64) { done = true }}
	h.submit(c, acc)
	h.run(100000, func() bool { return done })
}

// submit retries Submit until the L1 accepts the access.
func (h *harness) submit(c int, acc *Access) {
	h.t.Helper()
	h.run(100000, func() bool {
		return h.l1s[c].Submit(acc) != SubmitRetry
	})
}

// startStore submits a store without waiting; returns a *bool completion flag.
func (h *harness) startStore(c int, a memsys.Addr, size int, v uint64) *bool {
	h.t.Helper()
	done := new(bool)
	acc := &Access{Kind: AccessStore, Addr: a, Size: size, Value: v,
		Done: func(uint64) { *done = true }}
	h.submit(c, acc)
	return done
}

// dirState returns the directory state of a.
func (h *harness) dirState(a memsys.Addr) DirState {
	s, _ := h.dirs[h.params.HomeSlice(uint64(a))].StateOf(a)
	return s
}
