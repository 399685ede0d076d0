// Package calibrator recovers memory-hierarchy parameters by
// measurement, mimicking the CWI Calibrator utility the paper's cost
// models are fed from (§1.1: "parameters can be derived automatically
// at run-time with the Calibrator utility").
//
// The original tool times pointer chases over arrays of growing
// footprint and stride on real hardware. Here the same micro-patterns
// run against the cache simulator, and the "time" signal is the
// simulator's latency-weighted miss model — so the calibration can be
// verified exactly against the hierarchy specification it probes
// (which is precisely how one validates a calibrator).
package calibrator

import (
	"fmt"
	"math"
	"time"

	"radixdecluster/internal/cachesim"
	"radixdecluster/internal/compress"
	"radixdecluster/internal/mem"
)

// DetectedLevel is one recovered cache level.
type DetectedLevel struct {
	// Size is the detected capacity in bytes.
	Size int
	// LatencyNs is the detected per-miss penalty of falling out of
	// this level (the step height in the footprint sweep).
	LatencyNs float64
}

// Result is a full calibration.
type Result struct {
	Levels []DetectedLevel
	// TLBReach is entries*pagesize — the footprint at which page
	// misses begin.
	TLBReach int
	// LineSize is the innermost cache's detected transfer unit.
	LineSize int
}

// timePerAccess builds a fresh simulator, runs one warm-up traversal
// of footprint bytes at the given stride, then measures a second
// traversal: modeled nanoseconds per access in steady state.
func timePerAccess(h mem.Hierarchy, footprint, stride int) (float64, error) {
	s, err := cachesim.New(h)
	if err != nil {
		return 0, err
	}
	r := s.Alloc("probe", footprint)
	accesses := 0
	pass := func() {
		for off := 0; off+4 <= footprint; off += stride {
			s.Load(r, off, 4)
			accesses++
		}
	}
	pass() // warm up
	s.Reset()
	accesses = 0
	pass() // measure
	if accesses == 0 {
		return 0, fmt.Errorf("calibrator: footprint %d too small for stride %d", footprint, stride)
	}
	return s.ModeledNanos() / float64(accesses), nil
}

// randomTimePerAccess mirrors timePerAccess but visits the strided
// offsets in a fixed pseudo-random order, so prefetch-friendly
// sequential misses become full random misses — the access pattern of
// one uncovered stream hitting RAM.
func randomTimePerAccess(h mem.Hierarchy, footprint, stride int) (float64, error) {
	s, err := cachesim.New(h)
	if err != nil {
		return 0, err
	}
	r := s.Alloc("probe", footprint)
	n := footprint / stride
	if n == 0 {
		return 0, fmt.Errorf("calibrator: footprint %d too small for stride %d", footprint, stride)
	}
	// Deterministic Fisher-Yates over the offset order (xorshift64;
	// the calibration must be reproducible run to run).
	order := make([]int, n)
	for i := range order {
		order[i] = i * stride
	}
	state := uint64(0x9E3779B97F4A7C15)
	for i := n - 1; i > 0; i-- {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		j := int(state % uint64(i+1))
		order[i], order[j] = order[j], order[i]
	}
	pass := func() {
		for _, off := range order {
			s.Load(r, off, 4)
		}
	}
	pass() // warm up
	s.Reset()
	pass() // measure
	return s.ModeledNanos() / float64(n), nil
}

// MemStreams estimates how many concurrent sequential access streams
// saturate the memory bus. The simulator is single-threaded, so the
// figure is derived the way the hardware argument goes: a lone random
// stream completes one line transfer per full miss latency, while the
// saturated bus serves lines at the sequential (prefetched, open-page)
// rate — so it takes random-time/sequential-time concurrent streams to
// draw full bandwidth. Both times are measured over a footprint of 4x
// the last-level cache, where every access reaches RAM. On the paper's
// Pentium 4 profile this lands near the "factor 10" sequential-vs-
// random gap of §1.1; desktop parts with shallower gaps calibrate to
// fewer streams.
//
// A hierarchy too large to sweep within probeBudget is probed as a
// proportionally shrunk copy (probeScale): the ratio is taken where
// every level thrashes, which depends on the levels' latencies and
// line sizes, not on how big they are.
func MemStreams(h mem.Hierarchy) (int, error) {
	if err := h.Validate(); err != nil {
		return 0, err
	}
	stride := 0
	for _, l := range h.Levels {
		if !l.IsTLB && l.LineSize > stride {
			stride = l.LineSize
		}
	}
	if stride == 0 {
		return 0, fmt.Errorf("calibrator: no data caches")
	}
	h = probeScale(h, stride)
	foot := 4 * h.LLC().Size
	seq, err := timePerAccess(h, foot, stride)
	if err != nil {
		return 0, err
	}
	rnd, err := randomTimePerAccess(h, foot, stride)
	if err != nil {
		return 0, err
	}
	if seq <= 0 {
		return 0, fmt.Errorf("calibrator: degenerate sequential time %g", seq)
	}
	streams := int(rnd/seq + 0.5)
	if streams < 1 {
		streams = 1
	}
	if streams > 64 {
		streams = 64
	}
	return streams, nil
}

// probeBudget bounds the simulated work of one MemStreams call, in tag
// comparisons (about a nanosecond each): the paper's Pentium 4 costs 5
// million, a host-shaped hierarchy — a 260 MiB L3 behind a 1536-entry
// fully associative TLB — 10^11 unscaled, minutes of spinning in the
// first query that plans against it.
const probeBudget = 1 << 27

// probeWork estimates the tag comparisons of MemStreams' four sweeps
// over 4x the LLC at the given stride: every access walks one set of
// each level.
func probeWork(h mem.Hierarchy, stride int) int64 {
	ways := 0
	for _, l := range h.Levels {
		if l.Assoc > 0 && l.Assoc < l.Lines() {
			ways += l.Assoc
		} else {
			ways += l.Lines()
		}
	}
	return 4 * int64(4*h.LLC().Size/stride) * int64(ways)
}

// probeScale returns h with every level divided by the smallest power
// of two for which the sweep fits probeBudget (h itself when it already
// does). Sizes stay whole lines and the data caches stay ordered, so
// the copy validates like h.
func probeScale(h mem.Hierarchy, stride int) mem.Hierarchy {
	full := h.Levels
	for div := 2; probeWork(h, stride) > probeBudget && h.LLC().Size > stride; div *= 2 {
		h.Levels = make([]mem.Level, len(full))
		prev := 0
		for i, l := range full {
			l.Size = max(l.Size/div/l.LineSize, 1) * l.LineSize
			if !l.IsTLB {
				if l.Size < prev {
					l.Size = (prev + l.LineSize - 1) / l.LineSize * l.LineSize
				}
				prev = l.Size
			}
			h.Levels[i] = l
		}
	}
	return h
}

// Calibrate probes the hierarchy with footprint and stride sweeps and
// returns the recovered parameters.
func Calibrate(h mem.Hierarchy) (*Result, error) {
	if err := h.Validate(); err != nil {
		return nil, err
	}
	res := &Result{}

	// Use a stride no smaller than any line size so each access maps
	// to a distinct line at every level; then time jumps exactly when
	// the footprint leaves a level.
	stride := 0
	for _, l := range h.Levels {
		if !l.IsTLB && l.LineSize > stride {
			stride = l.LineSize
		}
	}
	if stride == 0 {
		return nil, fmt.Errorf("calibrator: no data caches")
	}

	// Footprint sweep: detect capacity boundaries as >30% jumps of
	// steady-state time per access.
	maxFoot := 4 * h.LLC().Size
	prev, err := timePerAccess(h, 1<<10, stride)
	if err != nil {
		return nil, err
	}
	lastSize := 1 << 10
	for f := 2 << 10; f <= maxFoot; f <<= 1 {
		cur, err := timePerAccess(h, f, stride)
		if err != nil {
			return nil, err
		}
		if cur > prev*1.3 {
			// The previous footprint still fit: that is the capacity.
			res.Levels = append(res.Levels, DetectedLevel{Size: lastSize, LatencyNs: cur - prev})
		}
		prev = cur
		lastSize = f
	}

	// Stride sweep at a thrashing footprint: per-access time stops
	// growing once the stride reaches the innermost line size.
	foot := 4 * h.LLC().Size
	var prevT float64
	for s := 4; s <= 1024; s <<= 1 {
		cur, err := timePerAccess(h, foot, s)
		if err != nil {
			return nil, err
		}
		if prevT > 0 && cur < prevT*1.7 && res.LineSize == 0 {
			res.LineSize = s / 2
		}
		prevT = cur
	}
	if res.LineSize == 0 {
		res.LineSize = stride
	}

	// TLB sweep: stride of one page isolates translation misses.
	if tlb, ok := h.TLB(); ok {
		page := tlb.LineSize
		prev, err := timePerAccess(h, 8*page, page)
		if err != nil {
			return nil, err
		}
		last := 8 * page
		for f := 16 * page; f <= 8*tlb.Size; f <<= 1 {
			cur, err := timePerAccess(h, f, page)
			if err != nil {
				return nil, err
			}
			if cur > prev*1.3 && res.TLBReach == 0 {
				res.TLBReach = last
			}
			prev = cur
			last = f
		}
	}
	return res, nil
}

// Hierarchy converts a calibration into a usable mem.Hierarchy,
// filling unprobed fields (associativity, sequential latencies) with
// conservative defaults. This is how a system without /proc or PMC
// access would bootstrap the cost model.
func (r *Result) Hierarchy(pageSize int) mem.Hierarchy {
	var levels []mem.Level
	for i, d := range r.Levels {
		l := mem.Level{
			Name:        fmt.Sprintf("L%d", i+1),
			Size:        d.Size,
			LineSize:    r.LineSize,
			Assoc:       8,
			MissLatency: d.LatencyNs,
			SeqLatency:  d.LatencyNs / 4,
		}
		levels = append(levels, l)
	}
	if r.TLBReach > 0 && pageSize > 0 {
		levels = append(levels, mem.Level{
			Name:        "TLB",
			Size:        r.TLBReach,
			LineSize:    pageSize,
			Assoc:       0,
			MissLatency: 20,
			SeqLatency:  20,
			IsTLB:       true,
		})
	}
	return mem.Hierarchy{Levels: levels, ClockGHz: 1}
}

// DecodeNanos measures the per-value CPU cost of block decompression
// for the given scheme — the compression analogue of MemStreams'
// bus-budget probe. Decompression is pure CPU work — internal/compress's
// group kernel unpacks 8 values per bounds-checked window, a shift, a
// mask and an add each, and DeltaFOR adds a prefix sum — so unlike the
// cache-simulator probes above this times real decodes: a synthetic
// clustered column (3-bit deltas) is encoded once, then decoded
// block-by-block into a reused scratch buffer, and the best of several
// passes is taken to shed scheduler noise. The result feeds the cost
// model's compression term (CPU grows by n×DecodeNanos while
// bytes-moved shrink by the measured ratio).
func DecodeNanos(s compress.Scheme) (float64, error) {
	const blocks = 64
	vals := make([]int32, blocks*compress.BlockSize)
	v := int32(0)
	for i := range vals {
		v += int32(i % 7) // mildly increasing: the clustered-column shape
		vals[i] = v
	}
	enc, err := compress.EncodeColumn(vals, s)
	if err != nil {
		return 0, err
	}
	dst := make([]int32, compress.BlockSize)
	best := math.MaxFloat64
	for rep := 0; rep < 4; rep++ { // first pass doubles as warm-up
		t0 := time.Now()
		for b := 0; b < enc.BlockCount(); b++ {
			if _, err := enc.DecompressBlockInto(dst, b); err != nil {
				return 0, err
			}
		}
		if ns := float64(time.Since(t0).Nanoseconds()) / float64(len(vals)); rep > 0 && ns < best {
			best = ns
		}
	}
	// Clamp to sane bounds: timer glitches must not make the planner
	// believe decodes are free or catastrophically expensive.
	if best < 0.05 {
		best = 0.05
	}
	if best > 50 {
		best = 50
	}
	return best, nil
}
