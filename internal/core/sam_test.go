package core

import (
	"reflect"
	"testing"

	"fscoherence/internal/coherence"
	"fscoherence/internal/memsys"
)

// TestSAMRecycledEntryIsFresh checks the reuse of a displaced SAM entry:
// the payload ensure hands to the next block must be indistinguishable from
// a freshly built one, whatever the old block recorded (TS, last writers,
// readers or the ReaderOpt last-reader/overflow pair, reduction writers).
func TestSAMRecycledEntryIsFresh(t *testing.T) {
	for _, gran := range []int{1, 8} {
		for _, opt := range []bool{false, true} {
			d := newDS(coherence.FSLite, func(c *Config) {
				c.Granularity = gran
				c.ReaderOpt = opt
				c.SAMEntries, c.SAMWays = 1, 1 // every new block displaces
			})
			d.RegisterReduction(coherence.AddrRange{Start: blkA, Size: 32})
			all := mdBits(0, d.cfg.grains())
			d.OnRepMD(blkA, 1, all, 0)         // core 1 reads every grain
			d.OnRepMD(blkA, 2, all, 0)         // core 2 too (ReaderOpt overflow)
			d.OnRepMD(blkA, 3, 0, all)         // writes: last writer outside the region, TS
			d.RecordBytes(blkA, 4, 0, 8, true) // a reduction write inside it
			old := d.sam.peek(blkA)
			if !old.ts || old.redWriters[0].Empty() || old.lastWriter[d.cfg.grains()-1] == noCore {
				t.Fatalf("gran=%d readerOpt=%v: setup left the entry clean", gran, opt)
			}

			const blkC = memsys.Addr(0xc000)
			e := d.sam.ensure(blkC)
			if e != old {
				t.Fatalf("gran=%d readerOpt=%v: ensure allocated instead of reusing the displaced entry", gran, opt)
			}
			if want := newSamEntry(d.cfg); !reflect.DeepEqual(e, want) {
				t.Fatalf("gran=%d readerOpt=%v: recycled entry %+v, want fresh %+v", gran, opt, e, want)
			}
			if d.sam.peek(blkA) != nil {
				t.Fatalf("gran=%d readerOpt=%v: displaced block still has an entry", gran, opt)
			}
		}
	}
}

// TestSAMPrivatizedVictimIsNotRecycled checks that a displaced privatized
// entry keeps its merge history in the victim buffer instead of being
// handed to the next block.
func TestSAMPrivatizedVictimIsNotRecycled(t *testing.T) {
	d := newDS(coherence.FSLite, func(c *Config) { c.SAMEntries, c.SAMWays = 1, 1 })
	d.OnPrivatize(blkA)
	d.RecordBytes(blkA, 1, 0, 8, true)
	old := d.sam.peek(blkA)
	if e := d.sam.ensure(blkB); e == old {
		t.Fatal("a privatized entry was recycled")
	}
	if got := d.TakeForcedTerminations(); len(got) != 1 || got[0] != blkA {
		t.Fatalf("forced terminations %v, want [%v]", got, blkA)
	}
	if !maskBit(d.MergeMask(blkA, 1), 0) {
		t.Fatal("victim-buffer merge history lost")
	}
}
