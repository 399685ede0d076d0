// Package costmodel implements the paper's Appendix-A cost models,
// following the methodology of Manegold, Boncz and Kersten [MBK02]:
// an algorithm's memory cost is described as a composition of a small
// set of basic access patterns over data regions; each pattern has a
// hardware-independent miss-count formula per cache level,
// parametrised by the level's capacity and line size; elapsed time is
// the latency-weighted sum of misses plus a CPU term.
//
// Basic patterns (Table 1 of the paper):
//
//	s_trav   single sequential traversal
//	rs_trav  repetitive sequential traversal
//	r_trav   single random traversal (each item once, random order)
//	rr_trav  repetitive random traversal
//	r_acc    n random accesses (with repetition)
//	nest     interleaved multi-cursor append into H clusters
//
// Sequential misses are charged the prefetch-discounted SeqLatency,
// random misses the full MissLatency (§1.1: sequential RAM access is
// ~10x faster than "optimal" random access). Concurrent execution (⊙)
// is approximated by evaluating patterns against a capacity share of
// the cache; sequential execution (⊕) adds costs.
package costmodel

import (
	"fmt"
	"math"

	"radixdecluster/internal/mem"
)

// Region is a data region: N items of Width bytes, laid out
// contiguously (cf. Table 1: |R| and R-overbar).
type Region struct {
	N     int
	Width int
}

// Bytes is ||R||.
func (r Region) Bytes() float64 { return float64(r.N) * float64(r.Width) }

// LevelCost is the miss count of one hierarchy level, split by kind.
type LevelCost struct {
	Name string
	Seq  float64
	Rand float64
}

// Cost is a full per-level miss breakdown plus a CPU term in
// nanoseconds.
type Cost struct {
	Levels []LevelCost
	CPU    float64
}

// Add composes costs sequentially (the ⊕ operator). Neither operand
// is modified.
func (c Cost) Add(o Cost) Cost {
	levels := c.Levels
	if levels == nil {
		levels = o.Levels
	} else if o.Levels != nil && len(levels) != len(o.Levels) {
		panic("costmodel: adding costs from different hierarchies")
	}
	out := Cost{Levels: make([]LevelCost, len(levels)), CPU: c.CPU + o.CPU}
	for i := range levels {
		out.Levels[i].Name = levels[i].Name
		if c.Levels != nil {
			out.Levels[i].Seq += c.Levels[i].Seq
			out.Levels[i].Rand += c.Levels[i].Rand
		}
		if o.Levels != nil {
			out.Levels[i].Seq += o.Levels[i].Seq
			out.Levels[i].Rand += o.Levels[i].Rand
		}
	}
	return out
}

// Scale multiplies all components by k (e.g. per-partition cost times
// the number of partitions).
func (c Cost) Scale(k float64) Cost {
	out := Cost{Levels: make([]LevelCost, len(c.Levels)), CPU: c.CPU * k}
	for i, l := range c.Levels {
		out.Levels[i] = LevelCost{Name: l.Name, Seq: l.Seq * k, Rand: l.Rand * k}
	}
	return out
}

// MissesOf returns total misses of the named level.
func (c Cost) MissesOf(name string) float64 {
	for _, l := range c.Levels {
		if l.Name == name {
			return l.Seq + l.Rand
		}
	}
	return 0
}

// Model evaluates patterns against a hierarchy. Share scales the
// capacity available to the pattern, approximating the concurrent (⊙)
// composition: two streams competing for the cache each see half of
// it. Share 0 means 1.
type Model struct {
	H mem.Hierarchy
	// Share is the fraction of each cache level available (0 = 1.0).
	Share float64
}

func (m Model) share() float64 {
	if m.Share <= 0 || m.Share > 1 {
		return 1
	}
	return m.Share
}

// Nanos converts a cost to nanoseconds using the hierarchy's
// latencies.
func (m Model) Nanos(c Cost) float64 {
	t := c.CPU
	for _, lc := range c.Levels {
		for _, l := range m.H.Levels {
			if l.Name == lc.Name {
				t += lc.Seq*l.SeqLatency + lc.Rand*l.MissLatency
			}
		}
	}
	return t
}

// Millis converts a cost to milliseconds.
func (m Model) Millis(c Cost) float64 { return m.Nanos(c) / 1e6 }

func (m Model) eachLevel(f func(l mem.Level, cap float64) LevelCost) Cost {
	out := Cost{Levels: make([]LevelCost, len(m.H.Levels))}
	for i, l := range m.H.Levels {
		lc := f(l, float64(l.Size)*m.share())
		lc.Name = l.Name
		out.Levels[i] = lc
	}
	return out
}

func lines(bytes float64, l mem.Level) float64 {
	return math.Ceil(bytes / float64(l.LineSize))
}

// STrav is s_trav(R): one sequential traversal — one (prefetched)
// miss per line at every level.
func (m Model) STrav(r Region) Cost {
	return m.eachLevel(func(l mem.Level, _ float64) LevelCost {
		return LevelCost{Seq: lines(r.Bytes(), l)}
	})
}

// RSTrav is rs_trav(reps, R): repeated sequential traversals. If the
// region fits the (shared) capacity only the first traversal misses;
// otherwise every one does.
func (m Model) RSTrav(reps int, r Region) Cost {
	return m.eachLevel(func(l mem.Level, cap float64) LevelCost {
		ln := lines(r.Bytes(), l)
		if r.Bytes() <= cap {
			return LevelCost{Seq: ln}
		}
		return LevelCost{Seq: float64(reps) * ln}
	})
}

// RTrav is r_trav(R): every item touched exactly once, in random
// order. All lines are eventually loaded (compulsory misses, random
// kind since prefetching cannot follow), and when the region exceeds
// the capacity, revisits of already-evicted lines add conflict
// misses.
func (m Model) RTrav(r Region) Cost {
	return m.eachLevel(func(l mem.Level, cap float64) LevelCost {
		ln := lines(r.Bytes(), l)
		miss := math.Min(float64(r.N), ln)
		if b := r.Bytes(); b > cap {
			extra := math.Max(0, float64(r.N)-ln) * (1 - cap/b)
			miss = ln + extra
		}
		return LevelCost{Rand: miss}
	})
}

// RAcc is r_acc(n, R): n independent random accesses (with
// repetition) into R. The expected number of distinct lines touched
// follows the coupon-collector form D = L(1−e^(−n/L)); accesses beyond
// the first per line hit only if the region fits the capacity.
func (m Model) RAcc(n int, r Region) Cost {
	return m.eachLevel(func(l mem.Level, cap float64) LevelCost {
		ln := lines(r.Bytes(), l)
		if ln == 0 || n == 0 {
			return LevelCost{}
		}
		d := ln * (1 - math.Exp(-float64(n)/ln))
		miss := d
		if b := r.Bytes(); b > cap {
			miss = d + math.Max(0, float64(n)-d)*(1-cap/b)
		}
		return LevelCost{Rand: miss}
	})
}

// Nest is nest({R_j}, H, s_trav, ran): appending N items of r over H
// cluster cursors in random cluster order. While the H cursor lines
// (or pages, for the TLB) fit, each output line misses once; beyond
// that the cursors evict each other and appends miss in proportion to
// the overflow — the partitioning thrash of §2.2.
func (m Model) Nest(r Region, h int) Cost {
	return m.eachLevel(func(l mem.Level, cap float64) LevelCost {
		ln := lines(r.Bytes(), l)
		footprint := float64(h) * float64(l.LineSize)
		if footprint <= cap {
			return LevelCost{Rand: ln}
		}
		thrash := 1 - cap/footprint
		extra := math.Max(0, float64(r.N)-ln) * thrash
		return LevelCost{Rand: ln + extra}
	})
}

// RRTrav is rr_trav(reps, R, stride): reps interleaved traversals of
// R, each touching every reps-th item (the insertion-window write
// pattern of Radix-Decluster). Equivalent in volume to one random
// traversal of R; it stays cacheable iff R fits.
func (m Model) RRTrav(reps int, r Region) Cost {
	_ = reps // the interleaving factor cancels out in the miss count
	return m.RTrav(r)
}

// Validate checks the model has a usable hierarchy.
func (m Model) Validate() error {
	if err := m.H.Validate(); err != nil {
		return err
	}
	if len(m.H.Caches()) == 0 {
		return fmt.Errorf("costmodel: hierarchy without data caches")
	}
	return nil
}
