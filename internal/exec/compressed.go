package exec

// Compressed execution: the column view every fetch operator takes
// (Col; the record-array counterpart Rows is in rows.go), the decoder
// scratch, and the compressed morsel bodies the operators dispatch to
// when a view carries an encoding — decompressing per morsel into
// per-worker scratch so the tight loops run over L1-resident decoded
// spans while the memory bus only carries the compressed bytes — the
// paper's §5 footnote 5 "spend the bandwidth ceiling twice" idea. A
// raw view is the degenerate case of the same operator: the dispatch
// is one branch per morsel, never per tuple.
//
// The contract mirrors the rest of the engine: output bytes are a
// function of the decoded values only, never of whether the input was
// compressed, which engine ran it, or how morsels were scheduled. A
// morsel over values [lo,hi) maps to the block range
// [lo/BlockSize, ceil(hi/BlockSize)); interior blocks decode straight
// into the output or scratch, boundary blocks through a stack
// temporary inside compress.DecompressRangeInto.

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"radixdecluster/internal/compress"
	"radixdecluster/internal/mempool"
)

// Col is a column execution view, the one operand type of the fetch
// operators: raw values, a block-compressed encoding, or both. When
// Enc is non-nil the compressed form is the execution format and Raw
// (if present) is not read; the two must decode to identical values.
type Col struct {
	Raw []int32
	Enc *compress.Encoded
}

// RawCol wraps a plain column.
func RawCol(v []int32) Col { return Col{Raw: v} }

// Len returns the column's value count.
func (c Col) Len() int {
	if c.Enc != nil {
		return c.Enc.Len()
	}
	return len(c.Raw)
}

// Compressed reports whether the compressed form is the execution format.
func (c Col) Compressed() bool { return c.Enc != nil }

// CompStats counts a pipeline's compressed execution: how many
// compressed column inputs its operators consumed, the encoded bytes
// they read, the raw bytes that traffic replaced (SavedBytes =
// decoded - encoded, accumulated per decode, so re-decoding a block
// counts every pass — it measures bus traffic avoided, not storage),
// and the wall time spent inside block-decode loops.
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

// noteInput counts one operator input when its view carries an
// encoding (a raw view, enc == nil, is not compressed execution).
func (c *compCounters) noteInput(enc *compress.Encoded) {
	if enc != nil {
		c.cols.Add(1)
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

// decodeSpanValues bounds the per-morsel scratch decode span: spans of
// at most this many int32s (16KB) keep the decoded working set
// L1-resident while the extraction loop runs over it.
const decodeSpanValues = 4 * compress.BlockSize

// decoder is per-worker compressed-column scratch: a range-decode
// buffer plus a one-block cache for gathers. Both grow monotonically
// and are reused across morsels; the decode loops never read them, so
// stale contents are harmless.
type decoder struct {
	buf    []int32
	blk    []int32
	blkEnc *compress.Encoded
	blkIdx int
}

// decoders pools decoder scratch for scan-shaped ForRanges bodies,
// which see a range but no worker Scratch (and run on the caller's
// goroutine when the engine is serial).
var decoders = sync.Pool{New: func() any { return new(decoder) }}

func getDecoder() *decoder { return decoders.Get().(*decoder) }

func (d *decoder) release() {
	d.blkEnc = nil // do not pin the column past the scan
	decoders.Put(d)
}

// rangeInto decodes values [lo,hi) into the decoder's buffer and
// returns the decoded span.
func (d *decoder) rangeInto(cnt *compCounters, enc *compress.Encoded, lo, hi int) ([]int32, error) {
	n := hi - lo
	if cap(d.buf) < n {
		d.buf = make([]int32, n)
	}
	buf := d.buf[:n]
	t := time.Now()
	if err := enc.DecompressRangeInto(buf, lo, hi); err != nil {
		return nil, err
	}
	cnt.decodeNanos.Add(time.Since(t).Nanoseconds())
	cnt.noteSpan(enc, lo, hi)
	return buf, nil
}

// fetch returns value idx of enc through the one-block cache — the
// compressed analogue of col[idx] in a Positional-Join loop. Clustered
// fetch patterns confine consecutive idx values to a cache-sized
// region, so the same block serves long runs.
func (d *decoder) fetch(cnt *compCounters, enc *compress.Encoded, idx int) (int32, error) {
	if idx < 0 || idx >= enc.Len() {
		return 0, fmt.Errorf("exec: compressed fetch: index %d out of range [0,%d)", idx, enc.Len())
	}
	b := idx / compress.BlockSize
	if d.blkEnc != enc || d.blkIdx != b {
		if cap(d.blk) < compress.BlockSize {
			d.blk = make([]int32, compress.BlockSize)
		}
		t := time.Now()
		if _, err := enc.DecompressBlockInto(d.blk[:compress.BlockSize], b); err != nil {
			return 0, err
		}
		cnt.decodeNanos.Add(time.Since(t).Nanoseconds())
		cb := enc.BlockBytes(b)
		cnt.compressedBytes.Add(int64(cb))
		cnt.savedBytes.Add(int64(4*enc.BlockLen(b) - cb))
		d.blkEnc, d.blkIdx = enc, b
	}
	return d.blk[idx%compress.BlockSize], nil
}

// gatherSpanFactor / gatherRegionValues bound gather's region-decode
// path: when one call's oids span at most gatherRegionValues values
// and at most gatherSpanFactor times the gather count, the whole span
// is decoded once into scratch and indexed raw — every block decodes
// once per call instead of once per block-cache miss. Clustered fetch
// patterns (the paper's point) always qualify: their oids are confined
// to a cache-sized region. Sparse or unbounded spans fall back to the
// one-block cache.
const (
	gatherSpanFactor   = 8
	gatherRegionValues = 1 << 20
)

// gather is the compressed posjoin.FetchInto: dst[i] = enc[oids[i]].
func (d *decoder) gather(cnt *compCounters, enc *compress.Encoded, oids []OID, dst []int32) error {
	if len(oids) == 0 {
		return nil
	}
	lo, hi := int(oids[0]), int(oids[0])
	for _, o := range oids[1:] {
		if int(o) < lo {
			lo = int(o)
		} else if int(o) > hi {
			hi = int(o)
		}
	}
	if hi >= enc.Len() {
		return fmt.Errorf("exec: compressed gather: index %d out of range [0,%d)", hi, enc.Len())
	}
	if span := hi - lo + 1; span <= gatherRegionValues && span <= gatherSpanFactor*len(oids) {
		lo -= lo % compress.BlockSize // align so interior blocks decode in place
		buf, err := d.rangeInto(cnt, enc, lo, hi+1)
		if err != nil {
			return err
		}
		for i, o := range oids {
			dst[i] = buf[int(o)-lo]
		}
		return nil
	}
	for i, o := range oids {
		v, err := d.fetch(cnt, enc, int(o))
		if err != nil {
			return err
		}
		dst[i] = v
	}
	return nil
}

// decoder returns the worker's compressed-column scratch, allocated on
// first use and kept for the worker's lifetime.
func (s *Scratch) decoder() *decoder {
	if s.dec == nil {
		s.dec = new(decoder)
	}
	return s.dec
}

// serialDecoder is the engine-owned scratch for compressed operators
// running on the serial path (Engine.serial).
func (e *Engine) serialDecoder() *decoder {
	if e.sdec == nil {
		e.sdec = new(decoder)
	}
	return e.sdec
}

// MaterializeCol returns the column's raw values, decompressing
// chunk-parallel when the column is compressed. The decoded values are
// leased: they live until the pipeline closes.
func (e *Engine) MaterializeCol(c Col) ([]int32, error) {
	if c.Enc == nil {
		return c.Raw, nil
	}
	enc := c.Enc
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

// decodeRecords is the compressed morsel body of the record scans: it
// decodes records [r.Lo,r.Hi) of the view's image in L1-sized spans
// and hands each to emit — buf holds records [lo,hi) row-major.
func (e *Engine) decodeRecords(v Rows, r Range, emit func(buf []int32, lo, hi int)) error {
	d := getDecoder()
	defer d.release()
	width := v.Rel.Width
	step := max(1, decodeSpanValues/width)
	for lo := r.Lo; lo < r.Hi; {
		hi := min(lo+step, r.Hi)
		buf, err := d.rangeInto(&e.comp, v.Enc, lo*width, hi*width)
		if err != nil {
			return err
		}
		emit(buf, lo, hi)
		lo = hi
	}
	return nil
}

// gatherRecords is the compressed morsel body of GatherProjectInto:
// the records oids[r.Lo:r.Hi] select, read out of the view's image.
func (e *Engine) gatherRecords(v Rows, dst []int32, dstWidth, dstOff int, oids []OID, cols []int, r Range) error {
	if r.Hi <= r.Lo {
		return nil
	}
	enc, width, n := v.Enc, v.Rel.Width, v.Rel.Len()
	d := getDecoder()
	defer d.release()
	lo, hi := int(oids[r.Lo]), int(oids[r.Lo])
	for _, o := range oids[r.Lo+1 : r.Hi] {
		if int(o) < lo {
			lo = int(o)
		} else if int(o) > hi {
			hi = int(o)
		}
	}
	if hi >= n {
		return fmt.Errorf("exec: GatherProjectInto: record %d out of range [0,%d)", hi, n)
	}
	// Region decode (see gather): partially clustered oid orders
	// confine one range's records to a cache-sized slice of the image,
	// so decoding the slice once beats re-decoding blocks on every
	// cache miss.
	if span := (hi - lo + 1) * width; span <= gatherRegionValues && span <= gatherSpanFactor*(r.Hi-r.Lo)*len(cols) {
		base := lo * width
		base -= base % compress.BlockSize
		buf, err := d.rangeInto(&e.comp, enc, base, (hi+1)*width)
		if err != nil {
			return err
		}
		for i := r.Lo; i < r.Hi; i++ {
			rec := buf[int(oids[i])*width-base:]
			for k, c := range cols {
				dst[i*dstWidth+dstOff+k] = rec[c]
			}
		}
		return nil
	}
	for i := r.Lo; i < r.Hi; i++ {
		base := int(oids[i]) * width
		for k, c := range cols {
			val, err := d.fetch(&e.comp, enc, base+c)
			if err != nil {
				return err
			}
			dst[i*dstWidth+dstOff+k] = val
		}
	}
	return nil
}

// StitchRows builds the [key | π] wide tuples of a DSM pre-projection
// scan from column views: the key column streams sequentially (decoded
// in L1-sized spans when compressed) while the projection columns are
// gathered through the selection oids, compressed ones via the
// per-worker block cache.
func (e *Engine) StitchRows(keys Col, cols []Col, oids []OID) ([]int32, error) {
	n := keys.Len()
	if len(oids) != n {
		return nil, fmt.Errorf("exec: StitchRows: %d oids for %d keys", len(oids), n)
	}
	e.comp.noteInput(keys.Enc)
	for _, c := range cols {
		e.comp.noteInput(c.Enc)
	}
	w := 1 + len(cols)
	rows := mempool.Slice[int32](e.mem(), n*w) // join input: leased
	err := e.ForRanges(n, func(r Range) error {
		d := getDecoder()
		defer d.release()
		if keys.Compressed() {
			for lo := r.Lo; lo < r.Hi; {
				hi := lo + decodeSpanValues
				if hi > r.Hi {
					hi = r.Hi
				}
				buf, err := d.rangeInto(&e.comp, keys.Enc, lo, hi)
				if err != nil {
					return err
				}
				for i := lo; i < hi; i++ {
					rows[i*w] = buf[i-lo]
				}
				lo = hi
			}
		} else {
			for i := r.Lo; i < r.Hi; i++ {
				rows[i*w] = keys.Raw[i]
			}
		}
		for j, col := range cols {
			off := j + 1
			if col.Compressed() {
				for i := r.Lo; i < r.Hi; i++ {
					v, err := d.fetch(&e.comp, col.Enc, int(oids[i]))
					if err != nil {
						return err
					}
					rows[i*w+off] = v
				}
			} else {
				for i := r.Lo; i < r.Hi; i++ {
					rows[i*w+off] = col.Raw[oids[i]]
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}
