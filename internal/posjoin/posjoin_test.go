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
