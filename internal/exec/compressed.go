package exec

// Compressed execution reads block-compressed encodings in this file
// only: every other operator takes raw []int32 / *nsm.Relation operands.
// Two operators read an encoding. MaterializeCol decodes a whole input
// into a leased raw array — the scan-shaped decode phase a compressed
// plan lists right before the first phase that reads a base-order input.
// FetchImage is the fetch over join images, raw or compressed: per radix
// partition it decodes each encoded column's image range into the
// worker's scratch and gathers the partition's matches from there, so an
// image plan decodes where it fetches and leases no decoded column.
// Either way the decoded values are the raw ones, so a compressed run is
// byte-identical to the raw run of the same plan.

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"radixdecluster/internal/compress"
	"radixdecluster/internal/mempool"
	"radixdecluster/internal/posjoin"
)

// CompStats counts a pipeline's compressed execution: how many encoded
// inputs it decoded (an image fetch counts each encoded column once),
// the encoded bytes the decode loops read (a block an image fetch
// decodes for two partitions counts twice), the raw bytes that traffic
// replaced (SavedBytes = decoded - encoded, accumulated per decoded
// span — bus traffic avoided, not storage), and the time spent inside
// block-decode loops, summed over the workers' decode loops (on a
// parallel run it may exceed the wall time it adds).
type CompStats struct {
	Cols            int64
	CompressedBytes int64
	SavedBytes      int64
	DecodeNanos     int64
}

// DecodeTime returns the decode time, summed over the workers' decode
// loops, as a duration.
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

// decode decodes values [lo,hi) of enc into dst[:hi-lo] and accounts
// the span: its decode time, the encoded bytes of the touched blocks
// and the raw bytes that read replaced.
func (c *compCounters) decode(dst []int32, enc *compress.Encoded, lo, hi int) error {
	if hi <= lo {
		return nil
	}
	t := time.Now()
	if err := enc.DecompressRangeInto(dst, lo, hi); err != nil {
		return err
	}
	c.decodeNanos.Add(time.Since(t).Nanoseconds())
	b0, b1 := lo/compress.BlockSize, (hi+compress.BlockSize-1)/compress.BlockSize
	comp, raw := 0, 0
	for b := b0; b < b1; b++ {
		comp += enc.BlockBytes(b)
		raw += 4 * enc.BlockLen(b)
	}
	c.compressedBytes.Add(int64(comp))
	c.savedBytes.Add(int64(raw - comp))
	return nil
}

// MaterializeCol decodes an encoded column (or record image) into raw
// values, chunk-parallel over whole blocks: each chunk is a block range
// [lo,hi) decoding values [lo·BlockSize, min(hi·BlockSize, n)), so no
// block is decoded — or counted — by two chunks. The decoded values are
// leased: they live until the pipeline closes.
func (e *Engine) MaterializeCol(enc *compress.Encoded) ([]int32, error) {
	e.comp.cols.Add(1)
	n := enc.Len()
	out := mempool.Slice[int32](e.mem(), n)
	var err error
	if e.serial(n) {
		err = e.comp.decode(out, enc, 0, n)
	} else {
		chunks := e.chunksFor(enc.BlockCount())
		errs := e.errSlots(len(chunks))
		e.run(len(chunks), func(_, t int, _ *Scratch) {
			lo, hi := chunks[t].Lo*compress.BlockSize, min(chunks[t].Hi*compress.BlockSize, n)
			errs[t] = e.comp.decode(out[lo:hi], enc, lo, hi)
		})
		err = firstErr(errs)
	}
	if err != nil {
		return nil, err
	}
	return out, nil
}

// FetchImage is the Positional-Join over one side of a join image, one
// radix partition per morsel: pos are image positions, and partition
// p's matches pos[parts[p]:parts[p+1]] lie in its image range
// [offs[p], offs[p+1]) (join.Index.Parts, join.Image.Offsets). Per
// column the morsel takes that range — decoded from encs[c] into the
// worker's scratch where the column is encoded, else cols[c]'s own
// values — and gathers the partition's matches from it
// (posjoin.FetchWindowInto); where the matches are the whole range in
// order (every tuple matched once, as a key-FK join's larger side does)
// the range is decoded straight into the result, or copied. A partition
// without matches decodes nothing; a block straddling two partitions is
// decoded, and counted, by each. Morsels home on the worker that probed the partition
// (partitionAff). The bytes are posjoin.FetchInto's over the decoded
// columns on every engine, and an error is the serial loop's: the first
// in partition, then column, order. The columns are result arrays
// (Engine.Own).
func (e *Engine) FetchImage(cols [][]int32, encs []*compress.Encoded, offs, parts []int, pos []OID) ([][]int32, error) {
	h := len(offs) - 1
	if h < 0 || len(parts) != len(offs) || parts[0] != 0 || parts[h] != len(pos) || offs[0] != 0 {
		return nil, fmt.Errorf("exec: image fetch: %d partition offsets and %d match offsets over %d positions",
			len(offs), len(parts), len(pos))
	}
	widest := 0
	for p := range h {
		if offs[p] > offs[p+1] || parts[p] > parts[p+1] {
			return nil, fmt.Errorf("exec: image fetch: partition %d: offsets descend", p)
		}
		widest = max(widest, offs[p+1]-offs[p])
	}
	encoded := false
	for c, col := range cols {
		n := len(col)
		if enc := encAt(encs, c); enc != nil {
			e.comp.cols.Add(1)
			n, encoded = enc.Len(), true
		}
		if n != offs[h] {
			return nil, fmt.Errorf("exec: image fetch: column %d holds %d values, the image %d", c, n, offs[h])
		}
	}

	out := make([][]int32, len(cols))
	for c := range out {
		out[c] = e.Own(len(pos))
	}
	fetch := func(p int, s *Scratch) error {
		lo, hi, a, b := offs[p], offs[p+1], parts[p], parts[p+1]
		if a == b {
			return nil
		}
		// Every tuple of the partition matched once, in image order (the
		// larger side of a key-FK join): the fetch is the range itself,
		// decoded straight into the result or copied.
		dense := identity(pos[a:b], lo, hi)
		for c, col := range cols {
			dst, enc := out[c][a:b], encAt(encs, c)
			var err error
			switch {
			case enc != nil && dense:
				err = e.comp.decode(dst, enc, lo, hi)
			case enc != nil:
				src := s.Int32s(hi - lo)
				if err = e.comp.decode(src, enc, lo, hi); err == nil {
					err = posjoin.FetchWindowInto(dst, src, OID(lo), pos[a:b])
				}
			case dense:
				copy(dst, col[lo:hi])
			default:
				err = posjoin.FetchWindowInto(dst, col[lo:hi], OID(lo), pos[a:b])
			}
			if err != nil {
				return fmt.Errorf("partition %d, column %d: %w", p, c, err)
			}
		}
		return nil
	}
	if e.serial(len(pos)) {
		// One scratch as wide as the widest partition serves them all.
		var s Scratch
		if encoded {
			s.vals = mempool.Slice[int32](e.mem(), widest)
		}
		for p := range h {
			if err := fetch(p, &s); err != nil {
				return nil, err
			}
		}
		return out, nil
	}
	// The lowest failing partition's error is kept — no per-partition
	// error slots.
	var (
		mu    sync.Mutex
		errPt = h
		err   error
	)
	e.runAff(h, partitionAff(h), func(_, p int, s *Scratch) {
		if perr := fetch(p, s); perr != nil {
			mu.Lock()
			if p < errPt {
				errPt, err = p, perr
			}
			mu.Unlock()
		}
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// identity reports whether pos is lo, lo+1, …, hi-1.
func identity(pos []OID, lo, hi int) bool {
	if len(pos) != hi-lo {
		return false
	}
	for i, o := range pos {
		if int(o) != lo+i {
			return false
		}
	}
	return true
}

// encAt is encs[c], nil past its end.
func encAt(encs []*compress.Encoded, c int) *compress.Encoded {
	if c < len(encs) {
		return encs[c]
	}
	return nil
}
