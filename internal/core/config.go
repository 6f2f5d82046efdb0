// Package core implements the paper's contribution: the FSDetect and FSLite
// policies layered on the directory MESI protocol of package coherence.
//
// It provides the per-core private access metadata table (PAM, §IV), the
// per-LLC-slice shared access metadata table (SAM, §IV) with the reader
// metadata optimization of §VI, the per-directory-entry FC/IC/PMMC/HC
// counters (fig. 5c), the byte-granular true-sharing inference rules
// (§IV, §V-B), the privatization thresholds and metadata reset policy (§VI),
// and the detection reporting used by FSDetect as a diagnostics tool.
//
// The protocol plumbing (message handling, the PRV state machine) lives in
// package coherence and calls into this package through the
// coherence.L1Policy and coherence.DirPolicy interfaces.
package core

import (
	"math/bits"

	"fscoherence/internal/coherence"
	"fscoherence/internal/memsys"
	"fscoherence/internal/obs"
)

// Config holds the FSDetect/FSLite tunables (Table II defaults).
type Config struct {
	// Cores is the number of cores (bounds reader bit-vectors; max
	// memsys.MaxCores).
	Cores int

	// BlockSize is the cache line size in bytes.
	BlockSize int

	// Mode selects FSDetect (detect only) or FSLite (detect and repair).
	Mode coherence.Protocol

	// TauP is the privatization threshold: both FC and IC must reach it
	// before a block is flagged as potentially falsely shared (default 16).
	TauP uint32

	// TauR1 is the periodic metadata-reset threshold of §VI (default 16;
	// the paper sets TauR1 == TauP).
	TauR1 uint32

	// TauR2 resets all metadata including the TS bit when FC saturates
	// (default 127, the 7-bit counter maximum).
	TauR2 uint32

	// CounterMax is the FC/IC saturation value (127 for 7-bit counters).
	CounterMax uint32

	// Granularity is the access-tracking grain in bytes: 1 (default), 2 or
	// 4 (§VIII-B coarse-grain tracking study).
	Granularity int

	// ReaderOpt replaces the per-byte reader bit-vector with a last-reader
	// ID plus an overflow bit (§VI), shrinking the SAM entry by 25%.
	ReaderOpt bool

	// SAMEntries/SAMWays size the per-slice SAM table (default 128 entries,
	// 16-way, Table II).
	SAMEntries int
	SAMWays    int

	// HCMax is the saturating hysteresis counter maximum (3 for 2 bits).
	HCMax uint8

	// Now supplies the current simulation cycle for detection timestamps.
	// Optional; defaults to a zero clock.
	Now func() uint64

	// Trace, when non-nil, receives a KindDetect / KindContended event for
	// every detector classification (the unified observability layer).
	Trace *obs.Tracer
}

// DefaultConfig returns the Table II FSDetect/FSLite configuration.
func DefaultConfig(cores, blockSize int, mode coherence.Protocol) Config {
	return Config{
		Cores:       cores,
		BlockSize:   blockSize,
		Mode:        mode,
		TauP:        16,
		TauR1:       16,
		TauR2:       127,
		CounterMax:  127,
		Granularity: 1,
		SAMEntries:  128,
		SAMWays:     16,
		HCMax:       3,
	}
}

// grains returns the number of tracking grains per block.
func (c Config) grains() int { return c.BlockSize / c.Granularity }

// grainRange converts a byte range into an inclusive grain index range.
// Granularity is a validated power of two, so the division is a shift — this
// runs once or twice per committed access on the PAM hot path.
func (c Config) grainRange(off, size int) (int, int) {
	if size <= 0 {
		return 0, -1 // empty (prefetch)
	}
	sh := uint(bits.TrailingZeros8(uint8(c.Granularity)))
	return off >> sh, (off + size - 1) >> sh
}

func (c Config) validate() {
	if c.Cores <= 0 || c.Cores > memsys.MaxCores {
		panic("core: Cores must be in 1..memsys.MaxCores")
	}
	switch c.Granularity {
	case 1, 2, 4, 8:
	default:
		panic("core: Granularity must be 1, 2, 4 or 8")
	}
	if c.BlockSize%c.Granularity != 0 || c.grains() > 64 {
		panic("core: block size / granularity must divide and fit 64 grains")
	}
	if c.BlockSize > 64 {
		// MergeMask/ReduceMask pack one bit per byte of the block into a
		// uint64, so blocks larger than 64 bytes are unrepresentable.
		panic("core: BlockSize must be <= 64 for packed byte masks")
	}
	if c.SAMEntries%c.SAMWays != 0 {
		panic("core: SAM geometry invalid")
	}
}

func (c Config) now() uint64 {
	if c.Now == nil {
		return 0
	}
	return c.Now()
}
