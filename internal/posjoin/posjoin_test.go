package posjoin

import (
	"math/rand/v2"
	"slices"
	"testing"

	"radixdecluster/internal/bat"
	"radixdecluster/internal/mem"
	"radixdecluster/internal/radix"
)

func TestFetch(t *testing.T) {
	col := []int32{10, 20, 30, 40}
	got := make([]int32, 4)
	if err := FetchInto(got, col, []OID{3, 0, 0, 2}); err != nil {
		t.Fatal(err)
	}
	want := []int32{40, 10, 10, 30}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestFetchOutOfRange(t *testing.T) {
	if err := FetchInto(make([]int32, 1), []int32{1}, []OID{1}); err == nil {
		t.Fatal("out-of-range oid not rejected")
	}
}

func TestFetchIntoSizeMismatch(t *testing.T) {
	if err := FetchInto(make([]int32, 2), []int32{1}, []OID{0}); err == nil {
		t.Fatal("size mismatch not rejected")
	}
}

// TestFetchWindowInto: a fetch from a window of a column reads what
// FetchInto reads from the whole column, and rejects oids on either
// side of the window.
func TestFetchWindowInto(t *testing.T) {
	col := []int32{10, 20, 30, 40, 50, 60}
	oids := []OID{4, 2, 2, 3}
	want := make([]int32, len(oids))
	if err := FetchInto(want, col, oids); err != nil {
		t.Fatal(err)
	}
	got := make([]int32, len(oids))
	if err := FetchWindowInto(got, col[2:5], 2, oids); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
	for _, o := range []OID{1, 5} {
		if err := FetchWindowInto(got[:1], col[2:5], 2, []OID{o}); err == nil {
			t.Fatalf("oid %d outside the window [2,5) not rejected", o)
		}
	}
}

// TestFetchWindowPairInto: a paired fetch reads from each window what
// FetchWindowInto reads, from the window's first value to its last, and
// rejects the oids on either side of it and windows or outputs of
// unequal lengths.
func TestFetchWindowPairInto(t *testing.T) {
	col0 := []int32{10, 20, 30, 40, 50, 60}
	col1 := []int32{-1, -2, -3, -4, -5, -6}
	oids := []OID{4, 2, 2, 3, 4}
	got0, got1 := make([]int32, len(oids)), make([]int32, len(oids))
	if err := FetchWindowPairInto(got0, got1, col0[2:5], col1[2:5], 2, oids); err != nil {
		t.Fatal(err)
	}
	for c, got := range [][]int32{got0, got1} {
		want := make([]int32, len(oids))
		if err := FetchWindowInto(want, [][]int32{col0, col1}[c][2:5], 2, oids); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("window %d: got %v, want %v", c, got, want)
		}
	}
	for _, o := range []OID{1, 5} {
		if err := FetchWindowPairInto(got0[:1], got1[:1], col0[2:5], col1[2:5], 2, []OID{o}); err == nil {
			t.Fatalf("oid %d outside the window [2,5) not rejected", o)
		}
	}
	if err := FetchWindowPairInto(got0[:1], got1[:1], col0[2:5], col1[2:4], 2, []OID{2}); err == nil {
		t.Fatal("windows of unequal lengths not rejected")
	}
	if err := FetchWindowPairInto(got0[:1], got1[:2], col0[2:5], col1[2:5], 2, []OID{2}); err == nil {
		t.Fatal("an output of the wrong length not rejected")
	}
}

// BenchmarkFetchWindowPair gathers two columns' values at 16 Ki random
// positions of one 16 Ki window — one radix partition of the fetch over
// a join image — in one FetchWindowPairInto pass, and in two
// FetchWindowInto passes.
func BenchmarkFetchWindowPair(b *testing.B) {
	const n = 16 << 10
	rng := rand.New(rand.NewPCG(7, 7))
	w0, w1 := make([]int32, n), make([]int32, n)
	oids := make([]OID, n)
	for i := range n {
		w0[i], w1[i], oids[i] = rng.Int32(), rng.Int32(), OID(rng.IntN(n))
	}
	out0, out1 := make([]int32, n), make([]int32, n)
	b.Run("pair", func(b *testing.B) {
		b.SetBytes(2 * n * 4)
		for i := 0; i < b.N; i++ {
			if err := FetchWindowPairInto(out0, out1, w0, w1, 0, oids); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("single", func(b *testing.B) {
		b.SetBytes(2 * n * 4)
		for i := 0; i < b.N; i++ {
			if err := FetchWindowInto(out0, w0, 0, oids); err != nil {
				b.Fatal(err)
			}
			if err := FetchWindowInto(out1, w1, 0, oids); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func TestFetchEmpty(t *testing.T) {
	if err := FetchInto(nil, nil, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAllVariantsAgree(t *testing.T) {
	// Unsorted and sorted (after sort) FetchInto and ClusteredInto
	// (after partial cluster) must produce consistent projections: the value fetched
	// for a given join-index entry is the same, only the order of the
	// result column follows the oid reordering.
	rng := rand.New(rand.NewPCG(1, 2))
	n := 3000
	col := make([]int32, n)
	for i := range col {
		col[i] = int32(i) * 3
	}
	oids := make([]OID, 500)
	for i := range oids {
		oids[i] = OID(rng.IntN(n))
	}
	uns := make([]int32, len(oids))
	if err := FetchInto(uns, col, oids); err != nil {
		t.Fatal(err)
	}
	for i, o := range oids {
		if uns[i] != int32(o)*3 {
			t.Fatalf("unsorted[%d] = %d, want %d", i, uns[i], int32(o)*3)
		}
	}
	pos := make([]OID, len(oids))
	for i := range pos {
		pos[i] = OID(i)
	}
	// Sorted variant.
	srt, err := radix.SortOIDPairs(oids, pos, mem.Small())
	if err != nil {
		t.Fatal(err)
	}
	if !slices.IsSorted(srt.Key) {
		t.Fatal("radix sort did not sort")
	}
	sv := make([]int32, len(oids))
	if err := FetchInto(sv, col, srt.Key); err != nil {
		t.Fatal(err)
	}
	for i := range sv {
		if sv[i] != uns[srt.Other[i]] {
			t.Fatalf("sorted[%d] disagrees with unsorted", i)
		}
	}
	// Clustered variant.
	o := radix.Opts{Bits: 3, Ignore: radix.IgnoreBits(n, 3)}
	cl, err := radix.ClusterOIDPairs(oids, pos, o)
	if err != nil {
		t.Fatal(err)
	}
	cv := make([]int32, len(oids))
	if err := ClusteredInto(cv, col, cl.Key, cl.Borders()); err != nil {
		t.Fatal(err)
	}
	for i := range cv {
		if cv[i] != uns[cl.Other[i]] {
			t.Fatalf("clustered[%d] disagrees with unsorted", i)
		}
	}
}

func TestClusteredErrors(t *testing.T) {
	col := []int32{1, 2}
	oids := []OID{0, 1}
	out := make([]int32, 2)
	if err := ClusteredInto(out, col, oids, []bat.Border{{Start: 0, End: 1}}); err == nil {
		t.Fatal("bad borders not rejected")
	}
	borders := []bat.Border{{Start: 0, End: 2}}
	if err := ClusteredInto(out, col, []OID{0, 9}, borders); err == nil {
		t.Fatal("out-of-range oid not rejected")
	}
	if err := ClusteredInto(out[:1], col, oids, borders); err == nil {
		t.Fatal("short out not rejected")
	}
}
