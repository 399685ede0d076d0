// Package compress implements the lightweight column compression the
// paper sketches in §5 footnote 5: "Preliminary experiments with
// lightweight data (de-)compression indicate that a negligible CPU
// investment can more than half the needed I/O bandwidth on problems
// like TPC-H. As I/O bandwidth is precious, this looks a worthwhile
// approach to help scale DSM to disk-based scenarios."
//
// Two classic lightweight schemes for integer columns:
//
//   - Frame-of-reference (FOR): a block stores min(block) plus each
//     value's offset from it in the smallest fixed bit width that
//     fits. Dense oid columns and clustered join-index halves — this
//     repository's bread and butter — compress extremely well.
//   - Delta+FOR: consecutive differences first, then FOR; ideal for
//     sorted or partially clustered columns where deltas are tiny.
//
// Entries are packed LSB first at a fixed width w per block, so any 8
// consecutive entries span exactly w bytes. The decoder exploits that
// with one kernel per scheme, compiled once for every width 1…32
// (kernels.go): w is a constant inside each instantiation, so each of a
// group's 8 entries is one 8-byte load at a constant offset into the
// group's 40-byte window, a constant shift, a constant mask and an add
// — no per-entry call, branch or bounds check. DeltaFOR's kernel sums
// as it unpacks: each delta goes into a running value held in a
// register, and dst is written once and never re-read. Width 0 (a
// constant column for FOR, an arithmetic series for DeltaFOR) skips
// the payload entirely. The encoder mirrors the layout: a 64-bit
// accumulator appends 32 bits at a time straight into the output, and
// the scheme choice (Best) prices both schemes exactly without packing
// either. That is what keeps the paper's "negligible CPU investment"
// negligible for the sequential bulk reads and writes its algorithms
// issue against DSM fragments.
package compress

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
)

// BlockSize is the number of values per compression block. One block
// of 4-byte values spans 4KB uncompressed — a buffer page.
const BlockSize = 1024

// Scheme identifies a compression scheme.
type Scheme byte

const (
	// FOR is plain frame-of-reference.
	FOR Scheme = 1
	// DeltaFOR applies FOR to consecutive differences.
	DeltaFOR Scheme = 2
)

// String names the scheme.
func (s Scheme) String() string {
	switch s {
	case FOR:
		return "for"
	case DeltaFOR:
		return "delta"
	}
	return fmt.Sprintf("Scheme(%d)", byte(s))
}

// header layout per block:
//
//	byte 0:      scheme
//	byte 1:      bit width w (0..32)
//	bytes 2-3:   value count (uint16)
//	bytes 4-7:   reference (int32, little endian): min of the packed
//	             entries
//	bytes 8-11:  first value verbatim (DeltaFOR only; 0 for FOR)
//	payload:     packed offsets — n entries for FOR, n-1 deltas for
//	             DeltaFOR (the first value lives in the header, so one
//	             outlier cannot inflate the block's bit width)
const headerBytes = 12

// Compress encodes a column block-by-block with the given scheme into
// one allocation of exactly EstimateBytes.
func Compress(values []int32, scheme Scheme) ([]byte, error) {
	return AppendCompress(make([]byte, 0, EstimateBytes(values, scheme)), values, scheme)
}

// AppendCompress encodes a column block-by-block with the given scheme,
// appending the encoded stream to dst (which may be pre-sized scratch —
// callers on a pooled encode path pass recycled buffers sized by
// EstimateBytes so the append never reallocates).
func AppendCompress(dst []byte, values []int32, scheme Scheme) ([]byte, error) {
	if scheme != FOR && scheme != DeltaFOR {
		return nil, fmt.Errorf("compress: unknown scheme %d", scheme)
	}
	for start := 0; start < len(values); start += BlockSize {
		dst = appendBlock(dst, values[start:min(start+BlockSize, len(values))], scheme)
	}
	return dst, nil
}

// EstimateBytes returns the exact encoded byte size Compress would
// produce for values under scheme, in one allocation-free pass: each
// block's bit width is determined by the spread max-min of its packed
// entries (offsets from the block minimum for FOR, consecutive deltas
// for DeltaFOR), so a min/max sweep prices the block without packing
// a single bit. Callers choosing a scheme per frame compare both
// estimates and then encode once.
func EstimateBytes(values []int32, scheme Scheme) int {
	total := 0
	for start := 0; start < len(values); start += BlockSize {
		packed, _, width := frame(values[start:min(start+BlockSize, len(values))], scheme)
		total += headerBytes + (packed*width+7)/8
	}
	return total
}

// Decompress decodes a full column. Corrupt input (unknown scheme,
// bit width > 32, block count > BlockSize, truncated header or
// payload) returns an error, never panics.
func Decompress(data []byte) ([]int32, error) {
	var out []int32
	var tmp [BlockSize]int32
	for len(data) > 0 {
		n, consumed, err := decodeBlock(data, tmp[:])
		if err != nil {
			return nil, err
		}
		out = append(out, tmp[:n]...)
		data = data[consumed:]
	}
	return out, nil
}

// frame prices one block: its packed entry count (n for FOR, n-1
// deltas for DeltaFOR), the reference ref = min of those entries and
// the bit width of their largest offset from it. The offsets wrap
// exactly as the encoder's per-entry v-ref does, so uint32(hi-lo) is
// their maximum over the block.
func frame(block []int32, scheme Scheme) (packed int, ref int32, width int) {
	var lo, hi int32
	if scheme == DeltaFOR {
		packed = len(block) - 1
		if packed > 0 {
			lo = block[1] - block[0]
			hi = lo
			for i := 2; i < len(block); i++ {
				d := block[i] - block[i-1]
				lo, hi = min(lo, d), max(hi, d)
			}
		}
	} else {
		packed = len(block)
		if packed > 0 {
			lo, hi = block[0], block[0]
			for _, v := range block[1:] {
				lo, hi = min(lo, v), max(hi, v)
			}
		}
	}
	if packed > 0 {
		width = bits.Len32(uint32(hi - lo))
	}
	return packed, lo, width
}

// appendBlock encodes one block onto out. The packer feeds each entry
// into a 64-bit accumulator (at most 31 pending bits plus a 32-bit
// entry never overflow it) and appends 32 bits at a time, LSB first —
// the layout every decoder reads. out grows once, to the block's exact
// size, so a caller's pre-sized buffer is never reallocated.
func appendBlock(out []byte, block []int32, scheme Scheme) []byte {
	packed, ref, width := frame(block, scheme)
	delta := scheme == DeltaFOR
	var first int32
	start := 0
	if delta {
		first, start = block[0], 1
	}
	out = slices.Grow(out, headerBytes+(packed*width+7)/8)
	out = append(out, byte(scheme), byte(width))
	out = binary.LittleEndian.AppendUint16(out, uint16(len(block)))
	out = binary.LittleEndian.AppendUint32(out, uint32(ref))
	out = binary.LittleEndian.AppendUint32(out, uint32(first))
	if width == 0 {
		return out
	}
	var acc uint64
	var pending uint
	for i := start; i < len(block); i++ {
		v := block[i] - ref
		if delta {
			v -= block[i-1]
		}
		acc |= uint64(uint32(v)) << pending
		if pending += uint(width); pending >= 32 {
			out = binary.LittleEndian.AppendUint32(out, uint32(acc))
			acc >>= 32
			pending -= 32
		}
	}
	for ; pending > 0; pending -= min(pending, 8) {
		out = append(out, byte(acc))
		acc >>= 8
	}
	return out
}

// Ratio returns compressed bytes per original byte for a column under
// the given scheme (1.0 = no gain; the paper's footnote targets <0.5
// for TPC-H-like data).
func Ratio(values []int32, scheme Scheme) (float64, error) {
	if len(values) == 0 {
		return 1, nil
	}
	c, err := Compress(values, scheme)
	if err != nil {
		return 0, err
	}
	return float64(len(c)) / float64(4*len(values)), nil
}

// Best picks the scheme with the better ratio for a column — a
// miniature version of the per-column scheme choice a DSM system
// would make at load time — and returns its exact encoded size. It
// compares the two EstimateBytes sizes, so choosing packs nothing; ties
// go to FOR.
func Best(values []int32) (Scheme, int) {
	f, d := EstimateBytes(values, FOR), EstimateBytes(values, DeltaFOR)
	if d < f {
		return DeltaFOR, d
	}
	return FOR, f
}
