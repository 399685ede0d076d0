// Package mem describes hierarchical memory systems: cache levels, the
// TLB, and main memory, together with their capacities, transfer-unit
// sizes and access latencies.
//
// Every cache-conscious algorithm, every cost formula and the cache
// simulator in this repository are parametrised by a Hierarchy value,
// mirroring how the paper's algorithms are parametrised by the output
// of the MonetDB Calibrator. The default profile, Pentium4, is the
// exact machine of the paper's Section 4: 2.2 GHz Pentium 4 with a
// 16KB L1 (32-byte lines, 28-cycle miss), a 512KB L2 (128-byte lines,
// 350-cycle miss), a 64-entry TLB (50-cycle miss, 4KB pages) and
// PC800 RDRAM with 178ns latency.
package mem

import (
	"fmt"
	"math/bits"
)

// Level describes one level of the memory hierarchy: a data cache or,
// with IsTLB set, a translation look-aside buffer. For a TLB, LineSize
// is the page size and Size is Entries*PageSize (its "reach").
type Level struct {
	Name string
	// Size is the capacity in bytes (for a TLB: entries * page size).
	Size int
	// LineSize is the transfer unit in bytes (for a TLB: the page size).
	LineSize int
	// Assoc is the set-associativity. 0 means fully associative.
	Assoc int
	// MissLatency is the cost, in nanoseconds, of a random-access miss
	// at this level (the time to fetch a line from the level below).
	MissLatency float64
	// SeqLatency is the effective per-line cost, in nanoseconds, of a
	// miss during sequential traversal. Hardware prefetching and open
	// DRAM pages make sequential misses far cheaper than random ones
	// (the paper measures 3.2GB/s sequential vs 360MB/s "optimal"
	// random on its platform, nearly a factor 10).
	SeqLatency float64
	// IsTLB marks address-translation levels.
	IsTLB bool
}

// Lines returns the number of lines (or TLB entries) at this level.
func (l Level) Lines() int { return l.Size / l.LineSize }

func (l Level) String() string {
	kind := "cache"
	if l.IsTLB {
		kind = "TLB"
	}
	return fmt.Sprintf("%s(%s size=%d line=%d assoc=%d miss=%.1fns seq=%.1fns)",
		l.Name, kind, l.Size, l.LineSize, l.Assoc, l.MissLatency, l.SeqLatency)
}

// Hierarchy is an ordered list of levels, smallest/fastest first.
// Data caches and the TLB are kept in the same list; consumers filter
// with Level.IsTLB as needed.
type Hierarchy struct {
	Levels []Level
	// ClockGHz converts cycle counts from the literature into
	// nanoseconds. Informational; all Level latencies are already ns.
	ClockGHz float64
}

// Pentium4 returns the hierarchy of the paper's evaluation platform
// (Section 4). Latencies are converted from cycles at 2.2 GHz.
func Pentium4() Hierarchy {
	const ghz = 2.2
	cy := func(c float64) float64 { return c / ghz }
	return Hierarchy{
		ClockGHz: ghz,
		Levels: []Level{
			{
				Name:        "L1",
				Size:        16 << 10,
				LineSize:    32,
				Assoc:       4,
				MissLatency: cy(28),
				// L1 misses that hit L2 stream at near-L2 bandwidth.
				SeqLatency: cy(28) / 4,
			},
			{
				Name:        "L2",
				Size:        512 << 10,
				LineSize:    128,
				Assoc:       8,
				MissLatency: cy(350), // ~159ns, the paper's 178ns RDRAM round-trip
				// STREAM-style sequential bandwidth is ~10x the random rate.
				SeqLatency: cy(350) / 10,
			},
			{
				Name:        "TLB",
				Size:        64 * (4 << 10), // 64 entries * 4KB pages
				LineSize:    4 << 10,
				Assoc:       0, // fully associative
				MissLatency: cy(50),
				SeqLatency:  cy(50),
				IsTLB:       true,
			},
		},
	}
}

// Small returns a deliberately tiny hierarchy used in tests so that
// cache effects (cluster overflow, window overflow, TLB thrashing)
// appear at cardinalities of a few thousand tuples instead of
// millions.
func Small() Hierarchy {
	return Hierarchy{
		ClockGHz: 1,
		Levels: []Level{
			{Name: "L1", Size: 1 << 10, LineSize: 32, Assoc: 2, MissLatency: 10, SeqLatency: 2},
			{Name: "L2", Size: 8 << 10, LineSize: 64, Assoc: 4, MissLatency: 100, SeqLatency: 10},
			{Name: "TLB", Size: 8 * 512, LineSize: 512, Assoc: 0, MissLatency: 30, SeqLatency: 30, IsTLB: true},
		},
	}
}

// Validate reports structural problems: empty hierarchies, non-power-
// of-two line sizes, levels that shrink, or lines larger than the
// level itself.
func (h Hierarchy) Validate() error {
	if len(h.Levels) == 0 {
		return fmt.Errorf("mem: hierarchy has no levels")
	}
	prevSize := 0
	for i, l := range h.Levels {
		if l.Size <= 0 || l.LineSize <= 0 {
			return fmt.Errorf("mem: level %d (%s): non-positive size or line size", i, l.Name)
		}
		if l.LineSize&(l.LineSize-1) != 0 {
			return fmt.Errorf("mem: level %d (%s): line size %d is not a power of two", i, l.Name, l.LineSize)
		}
		if l.Size%l.LineSize != 0 {
			return fmt.Errorf("mem: level %d (%s): size %d not a multiple of line size %d", i, l.Name, l.Size, l.LineSize)
		}
		if l.Assoc < 0 {
			return fmt.Errorf("mem: level %d (%s): negative associativity", i, l.Name)
		}
		if !l.IsTLB {
			if l.Size < prevSize {
				return fmt.Errorf("mem: level %d (%s): size %d smaller than previous cache level %d", i, l.Name, l.Size, prevSize)
			}
			prevSize = l.Size
		}
	}
	return nil
}

// Caches returns the data-cache levels (TLBs excluded), innermost first.
func (h Hierarchy) Caches() []Level {
	var out []Level
	for _, l := range h.Levels {
		if !l.IsTLB {
			out = append(out, l)
		}
	}
	return out
}

// TLB returns the first TLB level and whether one exists.
func (h Hierarchy) TLB() (Level, bool) {
	for _, l := range h.Levels {
		if l.IsTLB {
			return l, true
		}
	}
	return Level{}, false
}

// LLC returns the last-level (largest) data cache. The paper's C —
// "the size of the cache in bytes" in the bit-planning formulas —
// always refers to this level (512KB L2 on the Pentium 4).
func (h Hierarchy) LLC() Level {
	caches := h.Caches()
	if len(caches) == 0 {
		panic("mem: hierarchy without data caches")
	}
	return caches[len(caches)-1]
}

// Log2Ceil returns ceil(log2(n)) for n >= 1, and 0 for n <= 1.
func Log2Ceil(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1))
}

// Log2Floor returns floor(log2(n)) for n >= 1, and 0 for n <= 1.
func Log2Floor(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n)) - 1
}
