package compress

import (
	"encoding/binary"
	"testing"
)

// FuzzRoundTrip checks Compress∘Decompress is the identity for
// arbitrary columns under both schemes, and the two facts Best's
// pack-free choice rests on: EstimateBytes is the encoded size exactly,
// and Best picks the scheme with the smaller Ratio.
func FuzzRoundTrip(f *testing.F) {
	f.Add([]byte{1, 0, 0, 0, 255, 255, 255, 255}, true)
	f.Add([]byte{}, false)
	f.Add([]byte{0, 0, 0, 128}, true)
	f.Fuzz(func(t *testing.T, raw []byte, delta bool) {
		vals := make([]int32, len(raw)/4)
		for i := range vals {
			vals[i] = int32(binary.LittleEndian.Uint32(raw[i*4:]))
		}
		s := FOR
		if delta {
			s = DeltaFOR
		}
		c, err := Compress(vals, s)
		if err != nil {
			t.Fatal(err)
		}
		if est := EstimateBytes(vals, s); est != len(c) {
			t.Fatalf("EstimateBytes %d, Compress wrote %d bytes", est, len(c))
		}
		got, err := Decompress(c)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(vals) {
			t.Fatalf("%d values, want %d", len(got), len(vals))
		}
		for i := range vals {
			if got[i] != vals[i] {
				t.Fatalf("value %d: %d != %d", i, got[i], vals[i])
			}
		}
		rf, err := Ratio(vals, FOR)
		if err != nil {
			t.Fatal(err)
		}
		rd, err := Ratio(vals, DeltaFOR)
		if err != nil {
			t.Fatal(err)
		}
		want := FOR
		if rd < rf {
			want = DeltaFOR
		}
		if best, err := Best(vals); err != nil || best != want {
			t.Fatalf("Best = %v, %v; the smaller Ratio is %v's (for %v, delta %v)", best, err, want, rf, rd)
		}
	})
}

// FuzzDecompressRobust ensures arbitrary (possibly corrupt) input
// never panics the decoder — it must either decode or return an error.
func FuzzDecompressRobust(f *testing.F) {
	good, _ := Compress([]int32{1, 2, 3, 1000, -5}, DeltaFOR)
	f.Add(good)
	f.Add([]byte{2, 40, 255, 255, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		out, err := Decompress(data)
		if err == nil && len(data) > 0 && len(out) == 0 && data[0] != 0 {
			// Decoding "succeeded" — acceptable; just must not panic.
			_ = out
		}
	})
}

// FuzzBlockRoundTrip checks that block-level random access agrees with
// the streaming decoder on arbitrary columns: every block decoded via
// DecompressBlockInto and every unaligned sub-range via
// DecompressRangeInto must match the full Decompress output.
func FuzzBlockRoundTrip(f *testing.F) {
	f.Add([]byte{1, 0, 0, 0, 255, 255, 255, 255}, false, 0, 4)
	f.Add([]byte{0, 0, 0, 128, 1, 0, 0, 0}, true, 1, 2)
	f.Fuzz(func(t *testing.T, raw []byte, delta bool, lo, hi int) {
		vals := make([]int32, len(raw)/4)
		for i := range vals {
			vals[i] = int32(binary.LittleEndian.Uint32(raw[i*4:]))
		}
		s := FOR
		if delta {
			s = DeltaFOR
		}
		e, err := EncodeColumn(vals, s)
		if err != nil {
			t.Fatal(err)
		}
		if e.Len() != len(vals) {
			t.Fatalf("Len %d, want %d", e.Len(), len(vals))
		}
		dst := make([]int32, BlockSize)
		for b := 0; b < e.BlockCount(); b++ {
			n, err := e.DecompressBlockInto(dst, b)
			if err != nil {
				t.Fatalf("block %d: %v", b, err)
			}
			for i := 0; i < n; i++ {
				if dst[i] != vals[b*BlockSize+i] {
					t.Fatalf("block %d value %d: %d != %d", b, i, dst[i], vals[b*BlockSize+i])
				}
			}
		}
		if lo < 0 || hi > len(vals) || lo > hi {
			return
		}
		rng := make([]int32, hi-lo)
		if err := e.DecompressRangeInto(rng, lo, hi); err != nil {
			t.Fatalf("range [%d,%d): %v", lo, hi, err)
		}
		for i := range rng {
			if rng[i] != vals[lo+i] {
				t.Fatalf("range [%d,%d) value %d: %d != %d", lo, hi, i, rng[i], vals[lo+i])
			}
		}
	})
}

// FuzzParseEncodedRobust feeds arbitrary bytes to ParseEncoded and, if
// a stream parses, exercises block decoding on it — corrupted headers
// (scheme/width/count out of range, truncated payloads) must error,
// never panic.
func FuzzParseEncodedRobust(f *testing.F) {
	good, _ := Compress([]int32{1, 2, 3, 1000, -5}, DeltaFOR)
	f.Add(good)
	f.Add([]byte{9, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0})     // bad scheme
	f.Add([]byte{1, 33, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0})    // width 33
	f.Add([]byte{1, 0, 255, 255, 0, 0, 0, 0, 0, 0, 0, 0}) // count 65535
	f.Add([]byte{2, 32, 255, 3, 0, 0, 0, 0, 0, 0, 0, 0})  // truncated payload
	f.Fuzz(func(t *testing.T, data []byte) {
		e, err := ParseEncoded(data)
		if err != nil {
			return
		}
		dst := make([]int32, BlockSize)
		for b := 0; b < e.BlockCount(); b++ {
			if _, err := e.DecompressBlockInto(dst, b); err != nil {
				t.Fatalf("parsed stream failed block decode %d: %v", b, err)
			}
		}
		if full, err := Decompress(data); err != nil {
			t.Fatalf("parsed stream failed Decompress: %v", err)
		} else if len(full) != e.Len() {
			t.Fatalf("Decompress %d values, ParseEncoded %d", len(full), e.Len())
		}
	})
}
