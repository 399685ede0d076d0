package compress

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// ErrShortBuffer is returned by the *Into decoders when the
// destination slice cannot hold the decoded values.
var ErrShortBuffer = errors.New("compress: destination buffer too short")

// Encoded is a block-compressed column with a per-block byte index,
// giving random access at block granularity: value i lives in block
// i/BlockSize, and every block decodes independently (DeltaFOR blocks
// carry their first value verbatim in the header). This is the
// execution-format handle the pipelines hold: a morsel over rows
// [lo,hi) maps to the block range [lo/BlockSize, ceil(hi/BlockSize))
// and decompresses exactly those blocks into per-worker scratch.
type Encoded struct {
	data   []byte
	offs   []int // offs[b] = byte offset of block b; len = BlockCount()+1
	n      int   // total values
	scheme Scheme
}

// EncodeColumn compresses a column under the given scheme and builds
// the block index.
func EncodeColumn(values []int32, scheme Scheme) (*Encoded, error) {
	return encode(values, scheme, EstimateBytes(values, scheme))
}

// EncodeBest compresses a column under the scheme Best picks for it.
func EncodeBest(values []int32) (*Encoded, error) {
	s, size := Best(values)
	return encode(values, s, size)
}

// encode compresses values under scheme into a buffer of size bytes,
// their exact encoded size, and builds the block index.
func encode(values []int32, scheme Scheme, size int) (*Encoded, error) {
	data, err := AppendCompress(make([]byte, 0, size), values, scheme)
	if err != nil {
		return nil, err
	}
	e, err := ParseEncoded(data)
	if err != nil {
		return nil, err
	}
	if e.n != len(values) {
		return nil, fmt.Errorf("compress: encoded %d values, want %d", e.n, len(values))
	}
	return e, nil
}

// ParseEncoded validates a compressed stream produced by Compress and
// indexes its blocks. It rejects corrupt headers (unknown scheme, bit
// width > 32, count out of range, truncated payload) and streams whose
// interior blocks are not exactly BlockSize values (random access
// needs the value->block mapping to be pure arithmetic). It never
// panics on adversarial input.
func ParseEncoded(data []byte) (*Encoded, error) {
	e := &Encoded{data: data, offs: []int{0}}
	off := 0
	for off < len(data) {
		scheme, n, payload, err := blockHeader(data[off:])
		if err != nil {
			return nil, err
		}
		if len(e.offs) == 1 {
			e.scheme = scheme
		} else if scheme != e.scheme {
			return nil, fmt.Errorf("compress: mixed schemes %d and %d in one column", e.scheme, scheme)
		}
		if e.n%BlockSize != 0 {
			return nil, fmt.Errorf("compress: interior block of %d values at offset %d", e.n%BlockSize, off)
		}
		e.n += n
		off += headerBytes + payload
		e.offs = append(e.offs, off)
	}
	return e, nil
}

// blockHeader validates the header at the start of data and returns
// the scheme, value count and payload byte length.
func blockHeader(data []byte) (Scheme, int, int, error) {
	if len(data) < headerBytes {
		return 0, 0, 0, fmt.Errorf("compress: truncated block header (%d bytes)", len(data))
	}
	scheme := Scheme(data[0])
	if scheme != FOR && scheme != DeltaFOR {
		return 0, 0, 0, fmt.Errorf("compress: unknown scheme %d in block", scheme)
	}
	width := int(data[1])
	if width > 32 {
		return 0, 0, 0, fmt.Errorf("compress: bit width %d", width)
	}
	n := int(binary.LittleEndian.Uint16(data[2:]))
	if n > BlockSize {
		return 0, 0, 0, fmt.Errorf("compress: block count %d exceeds BlockSize %d", n, BlockSize)
	}
	packed := n
	if scheme == DeltaFOR && n > 0 {
		packed = n - 1
	}
	payload := (packed*width + 7) / 8
	if len(data) < headerBytes+payload {
		return 0, 0, 0, fmt.Errorf("compress: truncated block payload: need %d bytes, have %d", payload, len(data)-headerBytes)
	}
	return scheme, n, payload, nil
}

// Len returns the number of values in the column.
func (e *Encoded) Len() int { return e.n }

// Scheme returns the compression scheme of the column.
func (e *Encoded) Scheme() Scheme { return e.scheme }

// CompressedBytes returns the encoded size in bytes.
func (e *Encoded) CompressedBytes() int { return len(e.data) }

// RawBytes returns the decoded size in bytes (4 per value).
func (e *Encoded) RawBytes() int { return 4 * e.n }

// Ratio returns compressed bytes per original byte (1.0 = no gain).
func (e *Encoded) Ratio() float64 {
	if e.n == 0 {
		return 1
	}
	return float64(len(e.data)) / float64(4*e.n)
}

// BlockCount returns the number of blocks.
func (e *Encoded) BlockCount() int { return len(e.offs) - 1 }

// BlockBytes returns the encoded byte size of block b (header
// included) — what a block decode actually pulls across the bus.
func (e *Encoded) BlockBytes(b int) int { return e.offs[b+1] - e.offs[b] }

// BlockLen returns the number of values in block b.
func (e *Encoded) BlockLen(b int) int {
	if last := e.BlockCount() - 1; b == last {
		return e.n - last*BlockSize
	}
	return BlockSize
}

// DecompressBlockInto decodes block b into dst and returns the number
// of values written. dst must hold at least BlockLen(b) values or
// ErrShortBuffer is returned; out-of-range b and corrupt block data
// error instead of panicking. The decoder writes every slot of
// dst[:BlockLen(b)] and reads none (DeltaFOR sums in a register as it
// unpacks), so dst may hold stale values from a previous decode —
// per-worker scratch buffers are reused across morsels without
// clearing.
func (e *Encoded) DecompressBlockInto(dst []int32, b int) (int, error) {
	if b < 0 || b >= e.BlockCount() {
		return 0, fmt.Errorf("compress: block %d out of range [0,%d)", b, e.BlockCount())
	}
	n, _, err := decodeBlock(e.data[e.offs[b]:e.offs[b+1]], dst)
	return n, err
}

// DecompressRangeInto decodes values [lo,hi) into dst[:hi-lo].
// Interior blocks decode straight into dst; the partial first and
// last blocks of the range decode through a stack temporary (DeltaFOR
// needs the block prefix to reconstruct mid-block values).
func (e *Encoded) DecompressRangeInto(dst []int32, lo, hi int) error {
	if lo < 0 || hi > e.n || lo > hi {
		return fmt.Errorf("compress: range [%d,%d) outside column of %d values", lo, hi, e.n)
	}
	if len(dst) < hi-lo {
		return fmt.Errorf("%w: %d values for range of %d", ErrShortBuffer, len(dst), hi-lo)
	}
	var tmp [BlockSize]int32
	out := 0
	for b := lo / BlockSize; out < hi-lo; b++ {
		bs := b * BlockSize
		bl := e.BlockLen(b)
		from, to := lo+out, hi
		if to > bs+bl {
			to = bs + bl
		}
		if from == bs && to == bs+bl {
			if _, err := e.DecompressBlockInto(dst[out:out+bl], b); err != nil {
				return err
			}
		} else {
			if _, err := e.DecompressBlockInto(tmp[:], b); err != nil {
				return err
			}
			copy(dst[out:], tmp[from-bs:to-bs])
		}
		out += to - from
	}
	return nil
}

// decodeBlock decodes the single block at the start of data into dst,
// returning the value count and bytes consumed. It validates the
// header — no width above 32 reaches a kernel — and writes every slot
// of dst[:n] without reading any, so callers may pass reused scratch.
func decodeBlock(data []byte, dst []int32) (int, int, error) {
	scheme, n, payload, err := blockHeader(data)
	if err != nil {
		return 0, 0, err
	}
	if len(dst) < n {
		return 0, 0, fmt.Errorf("%w: %d values for block of %d", ErrShortBuffer, len(dst), n)
	}
	width := int(data[1])
	ref := int32(binary.LittleEndian.Uint32(data[4:]))
	first := int32(binary.LittleEndian.Uint32(data[8:]))
	body := data[headerBytes : headerBytes+payload]
	dst = dst[:n]
	switch {
	case scheme == FOR && width == 0:
		for i := range dst {
			dst[i] = ref
		}
	case scheme == FOR:
		decodeFOR(dst, body, width, ref)
	case n == 0:
	case width == 0:
		// Every delta is ref: an arithmetic series from first, written 4
		// at a time (twice the speed of the one-add-per-value chain).
		i := 0
		for ; i+4 <= len(dst); i += 4 {
			d := (*[4]int32)(dst[i : i+4])
			d[0], d[1], d[2], d[3] = first, first+ref, first+2*ref, first+3*ref
			first += 4 * ref
		}
		for ; i < len(dst); i++ {
			dst[i] = first
			first += ref
		}
	default:
		dst[0] = first
		decodeDelta(dst[1:], body, width, ref, first)
	}
	return n, headerBytes + payload, nil
}

// readBits64 extracts the width (<= 32) bits at bit offset off with a
// single 64-bit load: the offset into the load (0..7) plus the width
// fits it. Within 8 bytes of the end of buf the load is assembled from
// the bytes that remain.
func readBits64(buf []byte, off, width int) uint32 {
	var w uint64
	if byteOff := off >> 3; byteOff+8 <= len(buf) {
		w = binary.LittleEndian.Uint64(buf[byteOff:])
	} else {
		for k, b := range buf[byteOff:] {
			w |= uint64(b) << (8 * k)
		}
	}
	return uint32(w >> (off & 7) & (uint64(1)<<width - 1))
}
