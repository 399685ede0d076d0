package compress

import "encoding/binary"

// The block decoders are compiled once per bit width. A width is a type,
// wK = [K]struct{}, and a kernel instantiated at it reads w := len(z) of
// a zero W: every array length is its own GC shape, so the toolchain
// stencils each width separately and w is a constant inside it. Each
// entry's window offset k*w/8, its shift k*w%8 and the mask fold into
// the instruction stream, and the window loads need no bounds checks.
// The speed depends on that one-instantiation-per-shape rule:
// BenchmarkDecompressBlockInto is the tripwire if a toolchain ever
// merges the shapes.
//
// decodeFOR and decodeDelta dispatch on the width with a switch of
// direct calls. A table of funcs would be shorter, but an indirect call
// makes dst escape, and with it the stack block buffers of
// DecompressRangeInto and Decompress (TestDecodeAllocatesNothing).

type (
	w1  [1]struct{}
	w2  [2]struct{}
	w3  [3]struct{}
	w4  [4]struct{}
	w5  [5]struct{}
	w6  [6]struct{}
	w7  [7]struct{}
	w8  [8]struct{}
	w9  [9]struct{}
	w10 [10]struct{}
	w11 [11]struct{}
	w12 [12]struct{}
	w13 [13]struct{}
	w14 [14]struct{}
	w15 [15]struct{}
	w16 [16]struct{}
	w17 [17]struct{}
	w18 [18]struct{}
	w19 [19]struct{}
	w20 [20]struct{}
	w21 [21]struct{}
	w22 [22]struct{}
	w23 [23]struct{}
	w24 [24]struct{}
	w25 [25]struct{}
	w26 [26]struct{}
	w27 [27]struct{}
	w28 [28]struct{}
	w29 [29]struct{}
	w30 [30]struct{}
	w31 [31]struct{}
	w32 [32]struct{}
)

// bitWidth is the set of width types, 1 through 32 bits.
type bitWidth interface {
	w1 | w2 | w3 | w4 | w5 | w6 | w7 | w8 | w9 | w10 | w11 | w12 | w13 | w14 | w15 | w16 |
		w17 | w18 | w19 | w20 | w21 | w22 | w23 | w24 | w25 | w26 | w27 | w28 | w29 | w30 | w31 | w32
}

// unpackFOR writes ref plus each of the len(dst) W-bit entries packed
// LSB first in body into dst. Eight entries span exactly w bytes, so
// every group whose 40-byte window lies inside body decodes through it
// (entry k's 8-byte load starts at k*w/8 <= 28, and its at most 7 + 32
// bits fit the load); the tail — the last ceil(40/w) groups or fewer —
// goes through readBits64, its bit offsets counted from the first
// entry left. The group loop advances dst and body themselves, so the
// compiler proves the window conversions in bounds from the loop
// condition (indexing by a group counter measured a quarter to a third
// slower: a bounds check per conversion). The group is unrolled by
// hand: a quarter faster than the loop form. (Decoding the tail's full
// groups from a zero-padded copy instead measured 13 % faster at width
// 3 and nothing at width 7.)
func unpackFOR[W bitWidth](dst []int32, body []byte, ref int32) {
	var z W
	le := binary.LittleEndian
	w := len(z)
	mask := uint64(1)<<w - 1
	for len(dst) >= 8 && len(body) >= 40 {
		out := (*[8]int32)(dst)
		win := (*[40]byte)(body)
		dst, body = dst[8:], body[w:]
		out[0] = ref + int32(le.Uint64(win[:])&mask)
		out[1] = ref + int32(le.Uint64(win[w/8:])>>(w%8)&mask)
		out[2] = ref + int32(le.Uint64(win[2*w/8:])>>(2*w%8)&mask)
		out[3] = ref + int32(le.Uint64(win[3*w/8:])>>(3*w%8)&mask)
		out[4] = ref + int32(le.Uint64(win[4*w/8:])>>(4*w%8)&mask)
		out[5] = ref + int32(le.Uint64(win[5*w/8:])>>(5*w%8)&mask)
		out[6] = ref + int32(le.Uint64(win[6*w/8:])>>(6*w%8)&mask)
		out[7] = ref + int32(le.Uint64(win[7*w/8:])>>(7*w%8)&mask)
	}
	for i := range dst {
		dst[i] = ref + int32(readBits64(body, i*w, w))
	}
}

// unpackDelta is unpackFOR fused with DeltaFOR's prefix sum: each
// entry plus ref is a delta, added to the running value acc, and acc is
// what dst receives — every slot is written once and never read back.
func unpackDelta[W bitWidth](dst []int32, body []byte, ref, acc int32) {
	var z W
	le := binary.LittleEndian
	w := len(z)
	mask := uint64(1)<<w - 1
	for len(dst) >= 8 && len(body) >= 40 {
		out := (*[8]int32)(dst)
		win := (*[40]byte)(body)
		dst, body = dst[8:], body[w:]
		acc += ref + int32(le.Uint64(win[:])&mask)
		out[0] = acc
		acc += ref + int32(le.Uint64(win[w/8:])>>(w%8)&mask)
		out[1] = acc
		acc += ref + int32(le.Uint64(win[2*w/8:])>>(2*w%8)&mask)
		out[2] = acc
		acc += ref + int32(le.Uint64(win[3*w/8:])>>(3*w%8)&mask)
		out[3] = acc
		acc += ref + int32(le.Uint64(win[4*w/8:])>>(4*w%8)&mask)
		out[4] = acc
		acc += ref + int32(le.Uint64(win[5*w/8:])>>(5*w%8)&mask)
		out[5] = acc
		acc += ref + int32(le.Uint64(win[6*w/8:])>>(6*w%8)&mask)
		out[6] = acc
		acc += ref + int32(le.Uint64(win[7*w/8:])>>(7*w%8)&mask)
		out[7] = acc
	}
	for i := range dst {
		acc += ref + int32(readBits64(body, i*w, w))
		dst[i] = acc
	}
}

// decodeFOR unpacks a FOR payload of width 1…32 into dst.
func decodeFOR(dst []int32, body []byte, width int, ref int32) {
	switch width {
	case 1:
		unpackFOR[w1](dst, body, ref)
	case 2:
		unpackFOR[w2](dst, body, ref)
	case 3:
		unpackFOR[w3](dst, body, ref)
	case 4:
		unpackFOR[w4](dst, body, ref)
	case 5:
		unpackFOR[w5](dst, body, ref)
	case 6:
		unpackFOR[w6](dst, body, ref)
	case 7:
		unpackFOR[w7](dst, body, ref)
	case 8:
		unpackFOR[w8](dst, body, ref)
	case 9:
		unpackFOR[w9](dst, body, ref)
	case 10:
		unpackFOR[w10](dst, body, ref)
	case 11:
		unpackFOR[w11](dst, body, ref)
	case 12:
		unpackFOR[w12](dst, body, ref)
	case 13:
		unpackFOR[w13](dst, body, ref)
	case 14:
		unpackFOR[w14](dst, body, ref)
	case 15:
		unpackFOR[w15](dst, body, ref)
	case 16:
		unpackFOR[w16](dst, body, ref)
	case 17:
		unpackFOR[w17](dst, body, ref)
	case 18:
		unpackFOR[w18](dst, body, ref)
	case 19:
		unpackFOR[w19](dst, body, ref)
	case 20:
		unpackFOR[w20](dst, body, ref)
	case 21:
		unpackFOR[w21](dst, body, ref)
	case 22:
		unpackFOR[w22](dst, body, ref)
	case 23:
		unpackFOR[w23](dst, body, ref)
	case 24:
		unpackFOR[w24](dst, body, ref)
	case 25:
		unpackFOR[w25](dst, body, ref)
	case 26:
		unpackFOR[w26](dst, body, ref)
	case 27:
		unpackFOR[w27](dst, body, ref)
	case 28:
		unpackFOR[w28](dst, body, ref)
	case 29:
		unpackFOR[w29](dst, body, ref)
	case 30:
		unpackFOR[w30](dst, body, ref)
	case 31:
		unpackFOR[w31](dst, body, ref)
	case 32:
		unpackFOR[w32](dst, body, ref)
	}
}

// decodeDelta unpacks a DeltaFOR payload of width 1…32 into dst,
// summing from acc, the value before dst[0].
func decodeDelta(dst []int32, body []byte, width int, ref, acc int32) {
	switch width {
	case 1:
		unpackDelta[w1](dst, body, ref, acc)
	case 2:
		unpackDelta[w2](dst, body, ref, acc)
	case 3:
		unpackDelta[w3](dst, body, ref, acc)
	case 4:
		unpackDelta[w4](dst, body, ref, acc)
	case 5:
		unpackDelta[w5](dst, body, ref, acc)
	case 6:
		unpackDelta[w6](dst, body, ref, acc)
	case 7:
		unpackDelta[w7](dst, body, ref, acc)
	case 8:
		unpackDelta[w8](dst, body, ref, acc)
	case 9:
		unpackDelta[w9](dst, body, ref, acc)
	case 10:
		unpackDelta[w10](dst, body, ref, acc)
	case 11:
		unpackDelta[w11](dst, body, ref, acc)
	case 12:
		unpackDelta[w12](dst, body, ref, acc)
	case 13:
		unpackDelta[w13](dst, body, ref, acc)
	case 14:
		unpackDelta[w14](dst, body, ref, acc)
	case 15:
		unpackDelta[w15](dst, body, ref, acc)
	case 16:
		unpackDelta[w16](dst, body, ref, acc)
	case 17:
		unpackDelta[w17](dst, body, ref, acc)
	case 18:
		unpackDelta[w18](dst, body, ref, acc)
	case 19:
		unpackDelta[w19](dst, body, ref, acc)
	case 20:
		unpackDelta[w20](dst, body, ref, acc)
	case 21:
		unpackDelta[w21](dst, body, ref, acc)
	case 22:
		unpackDelta[w22](dst, body, ref, acc)
	case 23:
		unpackDelta[w23](dst, body, ref, acc)
	case 24:
		unpackDelta[w24](dst, body, ref, acc)
	case 25:
		unpackDelta[w25](dst, body, ref, acc)
	case 26:
		unpackDelta[w26](dst, body, ref, acc)
	case 27:
		unpackDelta[w27](dst, body, ref, acc)
	case 28:
		unpackDelta[w28](dst, body, ref, acc)
	case 29:
		unpackDelta[w29](dst, body, ref, acc)
	case 30:
		unpackDelta[w30](dst, body, ref, acc)
	case 31:
		unpackDelta[w31](dst, body, ref, acc)
	case 32:
		unpackDelta[w32](dst, body, ref, acc)
	}
}
