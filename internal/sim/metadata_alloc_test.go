package sim

import (
	"math"
	"testing"

	"fscoherence/internal/coherence"
	"fscoherence/internal/cpu"
	"fscoherence/internal/stats"
)

// TestMetadataChurnDoesNotAllocate checks that FSLite's metadata tables
// recycle their entries. Two cores store in turn to the same word of each of
// 256 lines. Every store misses, and the intervention ships the owner's PAM
// entry to a SAM that holds far fewer lines, so the SAM replaces entries in
// every window and every fill takes a fresh PAM entry. A window allocates
// nothing, the bound of TestPingPongMissesDoNotAllocate. `make allocsmoke`
// runs it.
func TestMetadataChurnDoesNotAllocate(t *testing.T) {
	cfg := DefaultConfig(coherence.FSLite)
	const lines = 256
	var ths []cpu.ThreadFunc
	for t := 0; t < 2; t++ {
		ths = append(ths, func(c *cpu.Ctx) {
			for i := 0; ; i++ {
				c.Store(addr(i%lines, 0), 8, uint64(i))
			}
		})
	}
	s := New(cfg, Workload{Name: "churn", Threads: ths})
	defer s.Stop()
	window := func() {
		if _, err := s.advance("churn", math.MaxUint64, false, 64); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 500; i++ {
		window() // warm-up: every line, its directory and PAM state exist
	}
	const runs = 200
	repl0, data0 := s.stats.GetID(stats.IDSAMReplacements), s.stats.Get("net.msg.data")
	var quiet int
	allocs := testing.AllocsPerRun(runs, func() {
		r := s.stats.GetID(stats.IDSAMReplacements)
		window()
		if s.stats.GetID(stats.IDSAMReplacements) == r {
			quiet++
		}
	})
	// AllocsPerRun runs the window once more before it starts measuring.
	repl := float64(s.stats.GetID(stats.IDSAMReplacements)-repl0) / (runs + 1)
	data := float64(s.stats.Get("net.msg.data")-data0) / (runs + 1)
	t.Logf("per window: %.1f allocs, %.1f SAM replacements, %.1f data messages", allocs, repl, data)
	if quiet > 0 {
		t.Fatalf("%d of %d windows replaced no SAM entry: the workload no longer churns the SAM", quiet, runs+1)
	}
	if allocs > 0 {
		t.Fatalf("%.1f allocs per window for %.1f data messages: metadata entries are allocated, not recycled", allocs, data)
	}
}
