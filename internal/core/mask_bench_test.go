package core

import (
	"testing"

	"fscoherence/internal/coherence"
	"fscoherence/internal/stats"
)

// Micro-benchmarks for the batched byte-mask hot paths: the closed-form PAM
// grain mask, the PAM checked commit and invalidation take, and the packed
// SAM merge-mask expansion.

func benchPAM(gran int) *PAM {
	p := NewPAM(pamCfg(gran), 0, stats.NewSet())
	p.Allocate(0x1000, false)
	for off := 0; off < 64; off += 16 {
		w := off%32 == 0
		p.Commit(0x1000, off, 8, false, !w, w)
	}
	return p
}

func BenchmarkPAMMask(b *testing.B) {
	p := benchPAM(1)
	var acc uint64
	for i := 0; i < b.N; i++ {
		acc ^= p.mask(i%56, 8)
	}
	sinkU64 = acc
}

func BenchmarkPAMCommit(b *testing.B) {
	p := benchPAM(1)
	n := 0
	for i := 0; i < b.N; i++ {
		w := i%2 == 0
		if p.Commit(0x1000, (i%8)*8, 8, true, !w, w) {
			n++
		}
	}
	sinkInt = n
}

func BenchmarkPAMTakeEntry(b *testing.B) {
	p := benchPAM(1)
	var acc uint64
	for i := 0; i < b.N; i++ {
		r, w, _, _ := p.TakeEntry(0x1000)
		acc ^= r ^ w
		p.Allocate(0x1000, false)
		p.Commit(0x1000, 0, 8, false, false, true)
	}
	sinkU64 = acc
}

func benchDirSide(gran int) *DirSide {
	cfg := DefaultConfig(8, 64, coherence.FSLite)
	cfg.Granularity = gran
	d := NewDirSide(cfg, 0, stats.NewSet())
	// A privatized-episode SAM entry with interleaved last-writers: the
	// per-slot pattern of a falsely shared line.
	d.OnPrivatize(0x2000)
	for c := 0; c < 8; c++ {
		d.RecordBytes(0x2000, c, c*8, 8, true)
	}
	return d
}

func BenchmarkSAMMergeMask(b *testing.B) {
	d := benchDirSide(1)
	var acc uint64
	for i := 0; i < b.N; i++ {
		acc ^= d.MergeMask(0x2000, i%8)
	}
	sinkU64 = acc
}

var (
	sinkU64 uint64
	sinkInt int
)
