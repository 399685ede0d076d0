package compress

import (
	"fmt"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func roundTrip(t *testing.T, vals []int32, s Scheme) {
	t.Helper()
	c, err := Compress(vals, s)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decompress(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(vals) {
		t.Fatalf("scheme %d: %d values, want %d", s, len(got), len(vals))
	}
	for i := range vals {
		if got[i] != vals[i] {
			t.Fatalf("scheme %d: value %d = %d, want %d", s, i, got[i], vals[i])
		}
	}
}

func TestRoundTripBothSchemes(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 1))
	cases := map[string][]int32{
		"empty":      {},
		"single":     {42},
		"constant":   {7, 7, 7, 7, 7},
		"dense-oids": seq(0, 5000, 1),
		"sorted-gap": seq(1000, 3000, 17),
		"negatives":  {-5, -1, -3, 0, 2, -7},
		"random":     randSlice(rng, 4096, 1<<30),
		"extremes":   {-2147483648, 2147483647, 0, -1, 1},
	}
	for name, vals := range cases {
		for _, s := range []Scheme{FOR, DeltaFOR} {
			t.Run(name, func(t *testing.T) { roundTrip(t, vals, s) })
		}
	}
}

func seq(start, n, step int) []int32 {
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(start + i*step)
	}
	return out
}

func randSlice(rng *rand.Rand, n int, limit int32) []int32 {
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(rng.Int32N(limit))
	}
	return out
}

func TestRoundTripQuick(t *testing.T) {
	f := func(vals []int32, useDelta bool) bool {
		s := FOR
		if useDelta {
			s = DeltaFOR
		}
		c, err := Compress(vals, s)
		if err != nil {
			return false
		}
		got, err := Decompress(c)
		if err != nil || len(got) != len(vals) {
			return false
		}
		for i := range vals {
			if got[i] != vals[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// The paper's footnote target: lightweight compression halves the
// bandwidth. Dense oid columns — the join-index halves the Radix
// algorithms stream — must compress far below 0.5.
func TestRatioDenseOIDs(t *testing.T) {
	oids := seq(0, 100_000, 1)
	r, err := Ratio(oids, DeltaFOR)
	if err != nil {
		t.Fatal(err)
	}
	if r > 0.15 {
		t.Fatalf("delta ratio on dense oids = %.3f, want < 0.15", r)
	}
	rf, err := Ratio(oids, FOR)
	if err != nil {
		t.Fatal(err)
	}
	if rf > 0.45 {
		t.Fatalf("FOR ratio on dense oids = %.3f, want < 0.45", rf)
	}
}

func TestRatioSmallDomain(t *testing.T) {
	rng := rand.New(rand.NewPCG(2, 2))
	// TPC-H-ish: quantities 1..50, prices in a narrow band.
	vals := make([]int32, 50_000)
	for i := range vals {
		vals[i] = int32(rng.IntN(50)) + 1
	}
	r, err := Ratio(vals, FOR)
	if err != nil {
		t.Fatal(err)
	}
	if r > 0.5 {
		t.Fatalf("FOR ratio on small domain = %.3f, want < 0.5 (the footnote's claim)", r)
	}
}

func TestBest(t *testing.T) {
	sorted := seq(0, 10_000, 3)
	if s, _ := Best(sorted); s != DeltaFOR {
		t.Fatalf("Best(sorted) = %v; want DeltaFOR", s)
	}
	rng := rand.New(rand.NewPCG(3, 3))
	random := randSlice(rng, 10_000, 1<<28)
	if s, _ := Best(random); s != FOR {
		t.Fatalf("Best(random) = %v; want FOR", s)
	}
}

func TestDecompressErrors(t *testing.T) {
	if _, err := Decompress([]byte{1, 2, 3}); err == nil {
		t.Fatal("truncated header not rejected")
	}
	c, err := Compress(seq(0, 100, 1), FOR)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decompress(c[:len(c)-2]); err == nil {
		t.Fatal("truncated payload not rejected")
	}
	bad := append([]byte{}, c...)
	bad[0] = 99 // unknown scheme
	if _, err := Decompress(bad); err == nil {
		t.Fatal("unknown scheme not rejected")
	}
}

func TestCompressRejectsUnknownScheme(t *testing.T) {
	if _, err := Compress([]int32{1}, 7); err == nil {
		t.Fatal("unknown scheme not rejected")
	}
}

// TestDecodeAllocatesNothing: decoding into caller memory allocates
// nothing at any width under either scheme. An unaligned range decodes
// its partial blocks through a stack buffer, which stays on the stack
// only while no kernel call lets dst escape — dispatching the kernels
// through a table of funcs does, and moves that buffer to the heap on
// every call.
func TestDecodeAllocatesNothing(t *testing.T) {
	rng := rand.New(rand.NewPCG(30, 30))
	for _, scheme := range []Scheme{FOR, DeltaFOR} {
		for width := 0; width <= 32; width++ {
			vals := widthColumn(rng, 3*BlockSize, width, scheme)
			e, err := EncodeColumn(vals, scheme)
			if err != nil {
				t.Fatal(err)
			}
			lo, hi := BlockSize/2+3, 2*BlockSize+BlockSize/3
			dst := make([]int32, hi-lo) // also holds a whole block
			if n := testing.AllocsPerRun(10, func() {
				if err := e.DecompressRangeInto(dst, lo, hi); err != nil {
					t.Fatal(err)
				}
			}); n != 0 {
				t.Errorf("%v width %d: DecompressRangeInto allocates %v times", scheme, width, n)
			}
			if n := testing.AllocsPerRun(10, func() {
				if _, err := e.DecompressBlockInto(dst, 1); err != nil {
					t.Fatal(err)
				}
			}); n != 0 {
				t.Errorf("%v width %d: DecompressBlockInto allocates %v times", scheme, width, n)
			}
		}
	}
}

// benchWidths are the kernel benchmarks' bit widths: 0 (the workload's
// payload columns in base order), a clustered-oid width, 14 and 25 (the
// widths its image-order payload blocks are packed at), a wide one and
// the widest. Every width decodes through its own kernel instantiation:
// a toolchain that merged them would show here first.
var benchWidths = []int{0, 7, 14, 20, 25, 32}

// benchBlocks returns a 1 Mi-value column packed at width under scheme
// in every block.
func benchBlocks(scheme Scheme, width int) []int32 {
	return widthColumn(rand.New(rand.NewPCG(4, uint64(width))), 1<<20, width, scheme)
}

// BenchmarkDecompressBlockInto times the decode kernel: every block of
// the column into one reused scratch block, as a morsel does.
func BenchmarkDecompressBlockInto(b *testing.B) {
	for _, scheme := range []Scheme{FOR, DeltaFOR} {
		for _, width := range benchWidths {
			b.Run(fmt.Sprintf("%v/w=%d", scheme, width), func(b *testing.B) {
				vals := benchBlocks(scheme, width)
				e, err := EncodeColumn(vals, scheme)
				if err != nil {
					b.Fatal(err)
				}
				dst := make([]int32, BlockSize)
				b.ReportAllocs()
				b.SetBytes(int64(4 * len(vals)))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					for blk := 0; blk < e.BlockCount(); blk++ {
						if _, err := e.DecompressBlockInto(dst, blk); err != nil {
							b.Fatal(err)
						}
					}
				}
			})
		}
	}
}

// benchEncoded keeps BenchmarkAppendCompress's result live.
var benchEncoded []byte

// BenchmarkAppendCompress times the encoder into a dst pre-sized by
// EstimateBytes: 0 allocs/op.
func BenchmarkAppendCompress(b *testing.B) {
	for _, scheme := range []Scheme{FOR, DeltaFOR} {
		for _, width := range benchWidths {
			b.Run(fmt.Sprintf("%v/w=%d", scheme, width), func(b *testing.B) {
				vals := benchBlocks(scheme, width)
				dst := make([]byte, 0, EstimateBytes(vals, scheme))
				b.ReportAllocs()
				b.SetBytes(int64(4 * len(vals)))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					var err error
					if benchEncoded, err = AppendCompress(dst, vals, scheme); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
