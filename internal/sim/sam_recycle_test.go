package sim

import (
	"testing"

	"fscoherence/internal/coherence"
	"fscoherence/internal/cpu"
	"fscoherence/internal/stats"
)

// TestSAMRecycleLeavesNoTrace pins SAM entry recycling end to end. Two
// FSLite cores first write the same word of 24 lines, which the detector
// marks truly shared, and then falsely share four lines of slice 0: core 0
// reads word 0 while core 1 writes word 1. Slice 0's SAM set holds 16
// entries, so when the churned lines are homed at slice 0 every falsely
// shared line's entry is a recycled truly-shared one; homed at slice 1, they
// leave slice 0's SAM empty and the falsely shared lines get new entries.
// The slices are symmetric on the flat fabric, so the two runs must agree
// on every counter. Twelve rounds take each falsely shared line across the
// privatization thresholds once, so fresh entries privatize all four; an
// entry that kept its last block's TS bit would spend that crossing on the
// hysteresis reset and privatize none. Every churned line and the flag
// line (each core reads the word the other wrote) is marked truly shared
// once, which a recycled entry with a stale TS bit would skip.
func TestSAMRecycleLeavesNoTrace(t *testing.T) {
	const churn, falselyShared, rounds = 24, 4, 12
	run := func(churnSlice int) *Result {
		const flag = 8*2*churn + 2 // a line of slice 2
		threads := make([]cpu.ThreadFunc, 2)
		for core := range threads {
			threads[core] = func(c *cpu.Ctx) {
				for i := 0; i < churn; i++ {
					for k := 0; k < 4; k++ {
						c.Store(addr(8*i+churnSlice, 0), 8, uint64(k))
					}
				}
				// Start the false sharing together, after both cores
				// finished the churn, so its traffic never meets the
				// churn's at a slice.
				c.Store(addr(flag, 8*core), 8, 1)
				for c.Load(addr(flag, 8*(1-core)), 8) == 0 {
				}
				for r := 0; r < rounds; r++ {
					for j := 0; j < falselyShared; j++ {
						line := 8 * (churn + 8 + j) // slice 0
						if core == 0 {
							c.Load(addr(line, 0), 8)
						} else {
							c.Store(addr(line, 8), 8, uint64(r))
						}
					}
				}
			}
		}
		return mustRun(t, testConfig(coherence.FSLite), Workload{Name: "samrecycle", Threads: threads})
	}
	recycled, fresh := run(0), run(1)
	t.Logf("recycled entries: %d privatizations, %d true-sharing marks, %d cycles", recycled.Stats.GetID(stats.IDFSPrivatized), recycled.Stats.GetID(stats.IDFSTrueSharing), recycled.Cycles)
	if n := fresh.Stats.GetID(stats.IDFSPrivatized); n != falselyShared {
		t.Fatalf("fresh SAM entries: %d privatizations, want one for each of the %d falsely shared lines", n, falselyShared)
	}
	if n := fresh.Stats.GetID(stats.IDFSTrueSharing); n != churn+1 {
		t.Errorf("fresh SAM entries: %d true-sharing marks, want one for each of the %d churned lines and the flag line", n, churn)
	}
	// Both runs replace the churn's own entries; only the first also
	// replaces one for each falsely shared line.
	if a, b := recycled.Stats.GetID(stats.IDSAMReplacements), fresh.Stats.GetID(stats.IDSAMReplacements); a-b != falselyShared {
		t.Fatalf("%d SAM replacements with the churn at slice 0, %d at slice 1: want the falsely shared lines' %d more", a, b, falselyShared)
	}
	for _, ctr := range []string{stats.CtrFSPrivatized, stats.CtrFSTrueSharing, stats.CtrFSContended, stats.CtrFSMetadataResets} {
		if a, b := recycled.Stats.Get(ctr), fresh.Stats.Get(ctr); a != b {
			t.Errorf("%s: %d with recycled SAM entries, %d with fresh ones", ctr, a, b)
		}
	}
	if recycled.Cycles != fresh.Cycles {
		t.Errorf("%d cycles with recycled SAM entries, %d with fresh ones", recycled.Cycles, fresh.Cycles)
	}
}
