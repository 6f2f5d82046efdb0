package sim

import (
	"math"
	"runtime"
	"testing"

	"fscoherence/internal/coherence"
	"fscoherence/internal/cpu"
	"fscoherence/internal/network"
	"fscoherence/internal/stats"
)

// TestNewMachineAllocates bounds what assembling a machine costs: sim.New
// for the Table II 8-core FSLite machine must allocate under 1 MB. Cache
// sets are built on first use, so an unrun machine holds only the per-set
// bookkeeping, not the ways (the eager LLC arrays alone were about 5 MB).
// `make allocsmoke` runs it.
func TestNewMachineAllocates(t *testing.T) {
	cfg := DefaultConfig(coherence.FSLite)
	if cfg.Params.Cores != 8 {
		t.Fatalf("default machine has %d cores, want the Table II 8", cfg.Params.Cores)
	}
	wl := Workload{Name: "idle"}
	New(cfg, wl).Stop() // first build: one-time package state
	const n = 8
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		New(cfg, wl).Stop()
	}
	runtime.ReadMemStats(&after)
	perMachine := (after.TotalAlloc - before.TotalAlloc) / n
	t.Logf("sim.New allocates %d B per machine", perMachine)
	if perMachine >= 1<<20 {
		t.Fatalf("sim.New allocated %d B per machine, want under 1 MB", perMachine)
	}
}

// TestPingPongMissesDoNotAllocate checks that steady coherence misses
// recycle their transaction state. Two Baseline cores store to one line in
// turn, so every store misses and takes a directory intervention. L1 MSHRs
// and directory transactions come from per-controller freelists, and the
// owner hands its line buffer to the DataExcl message that answers the
// intervention, so a window allocates nothing. `make allocsmoke` runs it.
func TestPingPongMissesDoNotAllocate(t *testing.T) {
	cfg := DefaultConfig(coherence.Baseline)
	s := New(cfg, Workload{Name: "pingpong", Threads: storeToOneLine(2)})
	defer s.Stop()
	window := func() {
		if _, err := s.advance("pingpong", math.MaxUint64, false, 64); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 500; i++ {
		window() // warm-up: freelists and inbox rings fill
	}
	const runs = 200
	misses0, data0 := s.stats.GetID(stats.IDL1DMisses), s.stats.Get("net.msg.data")
	allocs := testing.AllocsPerRun(runs, window)
	// AllocsPerRun runs the window once more before it starts measuring.
	misses := float64(s.stats.GetID(stats.IDL1DMisses)-misses0) / (runs + 1)
	data := float64(s.stats.Get("net.msg.data")-data0) / (runs + 1)
	t.Logf("per window: %.1f allocs, %.1f misses, %.1f data messages", allocs, misses, data)
	if misses < 8 {
		t.Fatalf("only %.1f misses per window: the workload no longer ping-pongs", misses)
	}
	if allocs > 0 {
		t.Fatalf("%.1f allocs per window for %.1f misses: miss state or block data is allocated, not recycled", allocs, misses)
	}
}

// TestContendedMissesDoNotAllocate checks the directory's queues on the
// paper's Fig 1 pathology at a contended home slice. Eight Baseline cores
// of a 16-core mesh store to one line, so GetX requests arrive while the
// line is busy with an earlier one: they wait in the line's pending queue,
// move to the slice's retry queue when the transaction ends, and are
// served from there. Both queues keep their backing arrays, and the
// mesh's per-channel FIFO clamp reads the destination inbox rather than a
// table, so a window allocates nothing. `make allocsmoke` runs it.
func TestContendedMissesDoNotAllocate(t *testing.T) {
	cfg := DefaultConfig(coherence.Baseline)
	cfg.Params = cfg.Params.ScaleToCores(16)
	cfg.Params.Topology = network.TopoMesh
	s := New(cfg, Workload{Name: "contended", Threads: storeToOneLine(8)})
	defer s.Stop()
	window := func() {
		if _, err := s.advance("contended", math.MaxUint64, false, 64); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 500; i++ {
		window() // warm-up: freelists, inbox rings and queue arrays fill
	}
	const runs = 200
	var quiet int
	allocs := testing.AllocsPerRun(runs, func() {
		q := s.stats.GetID(stats.IDDirPendingQ)
		window()
		if s.stats.GetID(stats.IDDirPendingQ) == q {
			quiet++
		}
	})
	t.Logf("per window: %.1f allocs; %d of %d windows queued no request", allocs, quiet, runs+1)
	if quiet > 0 {
		t.Fatalf("%d of %d windows queued no request at the directory: the line is no longer contended", quiet, runs+1)
	}
	if allocs > 0 {
		t.Fatalf("%.1f allocs per window: queued requests or block data are allocated, not recycled", allocs)
	}
}

// storeToOneLine returns n threads that each store to the same word of one
// line forever, so every store misses and takes the line from the last
// writer.
func storeToOneLine(n int) []cpu.ThreadFunc {
	var ths []cpu.ThreadFunc
	for t := 0; t < n; t++ {
		ths = append(ths, func(c *cpu.Ctx) {
			for i := 0; ; i++ {
				c.Store(addr(0, 0), 8, uint64(i))
			}
		})
	}
	return ths
}
