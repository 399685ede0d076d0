package exec

// Compressed execution is a decode pass plus the raw plan: MaterializeCol
// is the one operator that reads a block-compressed encoding. A
// compressed plan lists a scan-shaped phase that decodes each encoded
// input into a leased raw array right before the first phase that reads
// it, and every other operator takes raw []int32 / *nsm.Relation
// operands only. The decode pass streams the encoded bytes once; its
// output bytes are the raw values, so a compressed run is byte-identical
// to the raw run of the same plan.

import (
	"sync/atomic"
	"time"

	"radixdecluster/internal/compress"
	"radixdecluster/internal/mempool"
)

// CompStats counts a pipeline's compressed execution: how many encoded
// inputs it decoded, the encoded bytes the decode passes read, the raw
// bytes that traffic replaced (SavedBytes = decoded - encoded,
// accumulated per decoded span — bus traffic avoided, not storage), and
// the wall time spent inside block-decode loops.
type CompStats struct {
	Cols            int64
	CompressedBytes int64
	SavedBytes      int64
	DecodeNanos     int64
}

// DecodeTime returns the decode wall time as a duration.
func (a CompStats) DecodeTime() time.Duration { return time.Duration(a.DecodeNanos) }

// compCounters is the engine-side accumulator behind CompStats;
// workers update it with atomics from morsel bodies.
type compCounters struct {
	cols            atomic.Int64
	compressedBytes atomic.Int64
	savedBytes      atomic.Int64
	decodeNanos     atomic.Int64
}

func (c *compCounters) snapshot() CompStats {
	return CompStats{
		Cols:            c.cols.Load(),
		CompressedBytes: c.compressedBytes.Load(),
		SavedBytes:      c.savedBytes.Load(),
		DecodeNanos:     c.decodeNanos.Load(),
	}
}

// noteSpan accounts one decoded value span [lo,hi): the encoded bytes
// of the touched blocks and the raw bytes that read replaced.
func (c *compCounters) noteSpan(enc *compress.Encoded, lo, hi int) {
	if hi <= lo {
		return
	}
	b0, b1 := lo/compress.BlockSize, (hi+compress.BlockSize-1)/compress.BlockSize
	comp, raw := 0, 0
	for b := b0; b < b1; b++ {
		comp += enc.BlockBytes(b)
		raw += 4 * enc.BlockLen(b)
	}
	c.compressedBytes.Add(int64(comp))
	c.savedBytes.Add(int64(raw - comp))
}

// MaterializeCol decodes an encoded column (or record image) into raw
// values, chunk-parallel over contiguous value ranges. The decoded
// values are leased: they live until the pipeline closes.
func (e *Engine) MaterializeCol(enc *compress.Encoded) ([]int32, error) {
	e.comp.cols.Add(1)
	out := mempool.Slice[int32](e.mem(), enc.Len())
	err := e.ForRanges(enc.Len(), func(r Range) error {
		t := time.Now()
		if err := enc.DecompressRangeInto(out[r.Lo:r.Hi], r.Lo, r.Hi); err != nil {
			return err
		}
		e.comp.decodeNanos.Add(time.Since(t).Nanoseconds())
		e.comp.noteSpan(enc, r.Lo, r.Hi)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
