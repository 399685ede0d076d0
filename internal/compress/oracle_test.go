package compress

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/bits"
	"math/rand/v2"
	"slices"
	"testing"
)

// The bit-at-a-time codec the word-at-a-time kernels replaced, kept as
// the reference they are held to: the encoded bytes must be identical
// and the decoders must agree with it value for value.

// writeBits stores the low `width` bits of v at bit offset off.
func writeBits(buf []byte, off, width int, v uint32) {
	for b := 0; b < width; b++ {
		if v&(1<<b) != 0 {
			buf[(off+b)/8] |= 1 << ((off + b) % 8)
		}
	}
}

// readBits extracts `width` bits at bit offset off.
func readBits(buf []byte, off, width int) uint32 {
	var v uint32
	for b := 0; b < width; b++ {
		if buf[(off+b)/8]&(1<<((off+b)%8)) != 0 {
			v |= 1 << b
		}
	}
	return v
}

// refCompress is the reference encoder.
func refCompress(values []int32, scheme Scheme) []byte {
	var out []byte
	for start := 0; start < len(values); start += BlockSize {
		block := values[start:min(start+BlockSize, len(values))]
		var work []int32
		var first int32
		if scheme == DeltaFOR {
			first = block[0]
			work = make([]int32, len(block)-1)
			for i := 1; i < len(block); i++ {
				work[i-1] = block[i] - block[i-1]
			}
		} else {
			work = block
		}
		var ref int32
		if len(work) > 0 {
			ref = slices.Min(work)
		}
		width := 0
		for _, v := range work {
			width = max(width, bits.Len32(uint32(v-ref)))
		}
		hdr := [headerBytes]byte{byte(scheme), byte(width)}
		binary.LittleEndian.PutUint16(hdr[2:], uint16(len(block)))
		binary.LittleEndian.PutUint32(hdr[4:], uint32(ref))
		binary.LittleEndian.PutUint32(hdr[8:], uint32(first))
		out = append(out, hdr[:]...)
		payload := make([]byte, (len(work)*width+7)/8)
		for i, v := range work {
			writeBits(payload, i*width, width, uint32(v-ref))
		}
		out = append(out, payload...)
	}
	return out
}

// refDecompress is the reference decoder (valid input only).
func refDecompress(data []byte) []int32 {
	var out []int32
	for len(data) > 0 {
		scheme, width := Scheme(data[0]), int(data[1])
		n := int(binary.LittleEndian.Uint16(data[2:]))
		ref := int32(binary.LittleEndian.Uint32(data[4:]))
		prev := int32(binary.LittleEndian.Uint32(data[8:]))
		packed := n
		if scheme == DeltaFOR {
			packed = n - 1
			out = append(out, prev)
		}
		body := data[headerBytes:]
		for i := 0; i < packed; i++ {
			v := ref + int32(readBits(body, i*width, width))
			if scheme == DeltaFOR {
				prev += v
				v = prev
			}
			out = append(out, v)
		}
		data = body[(packed*width+7)/8:]
	}
	return out
}

// widthColumn returns n values whose packed entries under scheme need
// exactly width bits in every block of more than one entry: entries are
// base plus random offsets below 2^width, with a block's first two
// entries pinned to the ends of that range, and base is drawn so the
// range does not wrap. Under DeltaFOR the entries are the deltas, so at
// the wide widths the running values wrap through MinInt32/MaxInt32.
func widthColumn(rng *rand.Rand, n, width int, scheme Scheme) []int32 {
	span := uint64(1) << width // offsets in [0, span)
	base := int32(math.MinInt32 + int64(rng.Uint64N(1<<32-span+1)))
	entry := func(k int) int32 {
		switch k {
		case 0:
			return base
		case 1:
			return base + int32(span-1)
		}
		return base + int32(rng.Uint64N(span))
	}
	vals := make([]int32, n)
	prev := int32(rng.Uint32())
	for i := range vals {
		k := i % BlockSize
		switch {
		case scheme == FOR:
			vals[i] = entry(k)
		case k > 0:
			prev += entry(k - 1)
			vals[i] = prev
		default:
			vals[i] = prev
		}
	}
	return vals
}

// TestCodecMatchesReference holds the word-at-a-time encoder and
// decoders to the bit-at-a-time reference over every width 0…32 under
// both schemes and the block lengths around a group and a block: the
// stream is byte-identical, every block width is the one asked for, and
// Decompress, DecompressBlockInto and unaligned DecompressRangeInto
// return the input.
func TestCodecMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(25, 25))
	lengths := []int{1, 2, 7, 8, 9, BlockSize - 1, BlockSize}
	for _, scheme := range []Scheme{FOR, DeltaFOR} {
		for width := 0; width <= 32; width++ {
			for _, n := range lengths {
				// Two blocks, the second of length n: interior blocks are
				// always full.
				vals := widthColumn(rng, BlockSize+n, width, scheme)
				requireCodecMatches(t, vals, scheme, width)
			}
		}
	}
}

// TestCodecWrappingDeltas: deltas of ±(2^32-1) wrap int32 arithmetic in
// both directions; the reference and the kernels must wrap alike.
func TestCodecWrappingDeltas(t *testing.T) {
	cases := [][]int32{
		{math.MinInt32, math.MaxInt32, math.MinInt32, math.MaxInt32, 0, math.MinInt32, -1, math.MaxInt32, 1},
		{math.MaxInt32, math.MinInt32, math.MaxInt32, math.MinInt32, math.MaxInt32, math.MinInt32, math.MaxInt32, math.MinInt32, math.MaxInt32},
	}
	series := make([]int32, 3*BlockSize)
	for i := range series {
		series[i] = math.MaxInt32 - 5 + int32(i) // overflows into MinInt32 at i = 6
	}
	cases = append(cases, series)
	for _, vals := range cases {
		for _, scheme := range []Scheme{FOR, DeltaFOR} {
			requireCodecMatches(t, vals, scheme, -1)
		}
	}
}

// requireCodecMatches checks one column against the reference; width
// >= 0 also requires every block to be packed at that width.
func requireCodecMatches(t *testing.T, vals []int32, scheme Scheme, width int) {
	t.Helper()
	want := refCompress(vals, scheme)
	got, err := Compress(vals, scheme)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%v width %d n %d: encoded stream differs from the reference", scheme, width, len(vals))
	}
	if EstimateBytes(vals, scheme) != len(want) {
		t.Fatalf("%v width %d n %d: EstimateBytes %d, encoded %d", scheme, width, len(vals), EstimateBytes(vals, scheme), len(want))
	}
	if !slices.Equal(refDecompress(want), vals) {
		t.Fatalf("%v width %d n %d: the reference decoder does not round-trip", scheme, width, len(vals))
	}
	e, err := ParseEncoded(got)
	if err != nil {
		t.Fatal(err)
	}
	for b := 0; width >= 0 && b < e.BlockCount(); b++ {
		if packed := e.BlockLen(b) - int(scheme-1); packed > 1 && int(got[e.offs[b]+1]) != width {
			t.Fatalf("%v n %d block %d: packed at width %d, want %d", scheme, len(vals), b, got[e.offs[b]+1], width)
		}
	}
	full, err := Decompress(got)
	if err != nil || !slices.Equal(full, vals) {
		t.Fatalf("%v width %d n %d: Decompress = %v", scheme, width, len(vals), err)
	}
	dst := make([]int32, BlockSize)
	for b := 0; b < e.BlockCount(); b++ {
		for i := range dst {
			dst[i] = -0x5a5a5a5 // stale scratch must not leak
		}
		n, err := e.DecompressBlockInto(dst, b)
		if err != nil || !slices.Equal(dst[:n], vals[b*BlockSize:b*BlockSize+e.BlockLen(b)]) {
			t.Fatalf("%v width %d n %d: DecompressBlockInto(%d) = %d, %v", scheme, width, len(vals), b, n, err)
		}
	}
	for _, rg := range [][2]int{{1, len(vals)}, {len(vals) / 3, len(vals) - 1}, {len(vals) - 1, len(vals)}} {
		lo, hi := rg[0], rg[1]
		if lo > hi {
			continue
		}
		out := make([]int32, hi-lo)
		if err := e.DecompressRangeInto(out, lo, hi); err != nil || !slices.Equal(out, vals[lo:hi]) {
			t.Fatalf("%v width %d n %d: DecompressRangeInto [%d,%d) = %v", scheme, width, len(vals), lo, hi, err)
		}
	}
}
