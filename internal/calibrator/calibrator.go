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

	"radixdecluster/internal/cachesim"
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
