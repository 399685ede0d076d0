package costmodel

// The compression term of the cost model (§5 footnote 5): executing
// over block-compressed base columns shrinks the bytes that cross the
// shared memory bus by the measured compression ratio, and grows the
// CPU term by a calibrated per-value decode cost. Both effects are
// applied as a Cost transform so every downstream consumer — Nanos,
// MemNanos, and above all ParallelNanos' bandwidth floor — sees the
// cheaper bus budget without new formulas.

import (
	"sync"

	"radixdecluster/internal/calibrator"
	"radixdecluster/internal/compress"
)

// decodeNanosFallback is the per-value decode cost assumed when the
// calibration probe fails — roughly one unpack loop iteration on a
// current core, and deliberately pessimistic enough that compression
// never looks free.
const decodeNanosFallback = 1.0

// decodeCache memoizes DecodeNanos per scheme: the probe times real
// block decodes and is too slow to rerun per cost evaluation (the
// SaturationStreams pattern).
var decodeCache sync.Map // compress.Scheme -> float64

// DecodeNanos returns the calibrated per-value CPU cost of block
// decompression for the scheme, measured once per process by
// calibrator.DecodeNanos and cached.
func DecodeNanos(s compress.Scheme) float64 {
	if v, ok := decodeCache.Load(s); ok {
		return v.(float64)
	}
	d, err := calibrator.DecodeNanos(s)
	if err != nil || d <= 0 {
		d = decodeNanosFallback
	}
	decodeCache.Store(s, d)
	return d
}

// Compression describes the compressed base inputs of one strategy's
// pipelines, as the planner sees them at decision time.
type Compression struct {
	// Ratio is the measured compressed/raw byte ratio of the
	// compressed inputs (compress.Ratio, weighted by column size);
	// values >= 1 mean the data does not compress and disable the term.
	Ratio float64
	// Values is the total number of values the pipelines would decode.
	Values int
	// DecodeNs is the calibrated per-value decode cost (DecodeNanos);
	// 0 selects the fallback constant.
	DecodeNs float64
}

// Enabled reports whether the compression term changes anything.
func (cp Compression) Enabled() bool {
	return cp.Ratio > 0 && cp.Ratio < 1 && cp.Values > 0
}

func (cp Compression) decodeNs() float64 {
	if cp.DecodeNs > 0 {
		return cp.DecodeNs
	}
	return decodeNanosFallback
}

// Apply adjusts a cost for compressed base inputs: the LLC-level
// sequential misses shrink to Ratio (only encoded bytes are streamed
// from RAM; random misses still fetch whole decoded blocks through the
// per-worker block cache, so they are left untouched), and the CPU
// term grows by the decode work. c is what one of workers workers pays
// (workers = 1: the whole pipeline), so it decodes a 1/workers share of
// Values. This deliberately treats every sequential base-column stream
// as compressed — the planner's per-strategy decision compares the
// transformed against the raw cost, so overstating the saving merely
// sharpens the contrast for bandwidth-bound plans.
func (cp Compression) Apply(m Model, c Cost, workers int) Cost {
	if !cp.Enabled() {
		return c
	}
	out := c.Scale(1) // deep copy
	llc := m.H.LLC().Name
	for i := range out.Levels {
		if out.Levels[i].Name == llc {
			out.Levels[i].Seq *= cp.Ratio
		}
	}
	out.CPU += float64(cp.Values) / float64(workers) * cp.decodeNs()
	return out
}
