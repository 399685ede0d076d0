package exec

import (
	"fmt"
	"reflect"
	"testing"

	"radixdecluster/internal/bat"
	"radixdecluster/internal/compress"
	"radixdecluster/internal/nsm"
)

// encode compresses a column under Best, failing the test on error.
func encode(t *testing.T, vals []int32) *compress.Encoded {
	t.Helper()
	e, err := compress.EncodeBest(vals)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// withEngines runs f on the serial engine, on leases of every nominal
// test worker count, and on a lease of a second runtime — every
// operator must be byte-identical across all, whatever view it is fed.
func withEngines(t *testing.T, f func(t *testing.T, e *Engine)) {
	t.Helper()
	rt := testRuntime(t)
	for _, w := range append([]int{0}, workerCounts...) {
		e := NewEngine(rt, w)
		t.Run(fmt.Sprintf("workers=%d", w), func(t *testing.T) { f(t, e) })
		e.Close()
	}
	// The leg keeps the subtest name it had when this runtime shared
	// scans: the tier-1 floor list is keyed by it.
	other := NewRuntime(2, 2)
	defer other.Close()
	oe := NewEngine(other, 2)
	defer oe.Close()
	t.Run("sharescans", func(t *testing.T) { f(t, oe) })
}

func TestMaterializeColMatchesRaw(t *testing.T) {
	vals := randVals(41, testN, false)
	enc := encode(t, vals)
	withEngines(t, func(t *testing.T, e *Engine) {
		got, err := e.MaterializeCol(Col{Enc: enc})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, vals) {
			t.Fatalf("workers=%d: materialized column differs from raw", e.Workers())
		}
		if raw, err := e.MaterializeCol(RawCol(vals)); err != nil || !reflect.DeepEqual(raw, vals) {
			t.Fatalf("raw passthrough changed the column: %v", err)
		}
	})
}

// TestFetchManyMatchesRaw feeds the fetch operator a mixed list —
// column 0 encoded only, column 1 raw — so both per-morsel dispatch
// arms run in one call: the result must be the all-raw views' (which
// TestFetchManyMatchesSerial holds to posjoin).
func TestFetchManyMatchesRaw(t *testing.T) {
	n := heavyN()
	cols := [][]int32{randVals(42, n, false), randVals(43, n, true)}
	oids := randOIDs(44, n, n)
	views := []Col{{Enc: encode(t, cols[0])}, RawCol(cols[1])}
	withEngines(t, func(t *testing.T, e *Engine) {
		want, err := e.FetchMany([]Col{RawCol(cols[0]), RawCol(cols[1])}, oids)
		if err != nil {
			t.Fatal(err)
		}
		got, err := e.FetchMany(views, oids)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: compressed FetchMany differs from raw", e.Workers())
		}
		if e.comp.snapshot().Cols != 1 {
			t.Fatalf("workers=%d: %d compressed columns accounted, want 1", e.Workers(), e.comp.snapshot().Cols)
		}
	})
}

func TestClusteredMatchesRaw(t *testing.T) {
	n := heavyN()
	col := randVals(45, n, false)
	// Clustered oids: borders over a partially-sorted oid order.
	oids := randOIDs(46, n, n)
	const parts = 64
	borders := make([]bat.Border, parts)
	per := n / parts
	for i := range borders {
		borders[i] = bat.Border{Start: i * per, End: (i + 1) * per}
	}
	borders[parts-1].End = n
	enc := encode(t, col)
	withEngines(t, func(t *testing.T, e *Engine) {
		want, err := e.Clustered(RawCol(col), oids, borders)
		if err != nil {
			t.Fatal(err)
		}
		got, err := e.Clustered(Col{Enc: enc}, oids, borders)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: compressed Clustered differs from raw", e.Workers())
		}
	})
}

func TestScanColumnMatchesRaw(t *testing.T) {
	const width = 4
	rel := testRelation(47, testN, width)
	enc := encode(t, rel.Data)
	for col := 0; col < width; col++ {
		withEngines(t, func(t *testing.T, e *Engine) {
			want, err := e.ScanColumn(Rows{Rel: rel}, col)
			if err != nil {
				t.Fatal(err)
			}
			got, err := e.ScanColumn(Rows{Rel: rel, Enc: enc}, col)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("workers=%d col=%d: compressed scan differs from raw", e.Workers(), col)
			}
		})
	}
}

func TestScanProjectMatchesRaw(t *testing.T) {
	const width = 5
	rel := testRelation(48, testN, width)
	enc := encode(t, rel.Data)
	cols := []int{3, 0, 4}
	withEngines(t, func(t *testing.T, e *Engine) {
		want, err := e.ScanProject(Rows{Rel: rel}, "proj", cols)
		if err != nil {
			t.Fatal(err)
		}
		got, err := e.ScanProject(Rows{Rel: rel, Enc: enc}, "proj", cols)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: compressed project scan differs from raw", e.Workers())
		}
	})
}

func TestGatherProjectMatchesRaw(t *testing.T) {
	const width = 4
	n := heavyN()
	rel := testRelation(49, n, width)
	view := Rows{Rel: rel, Enc: encode(t, rel.Data)}
	oids := randOIDs(50, n, n)
	cols := []int{2, 1}
	withEngines(t, func(t *testing.T, e *Engine) {
		want, err := e.GatherProject(Rows{Rel: rel}, "g", oids, cols)
		if err != nil {
			t.Fatal(err)
		}
		got, err := e.GatherProject(view, "g", oids, cols)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: compressed gather differs from raw", e.Workers())
		}
		// Strided in-place variant.
		dst := make([]int32, len(oids)*3)
		if err := e.GatherProjectInto(view, dst, 3, 1, oids, cols); err != nil {
			t.Fatal(err)
		}
		for i := range oids {
			for k := range cols {
				if dst[i*3+1+k] != want.Data[i*len(cols)+k] {
					t.Fatalf("workers=%d: strided gather differs at record %d field %d", e.Workers(), i, k)
				}
			}
		}
	})
}

func TestStitchRowsMatchesRaw(t *testing.T) {
	n := heavyN()
	keys := randVals(52, n, false)
	cols := [][]int32{randVals(53, n, false), randVals(54, n, true)}
	oids := randOIDs(55, n, n)
	w := 1 + len(cols)
	want := make([]int32, n*w)
	for i := 0; i < n; i++ {
		want[i*w] = keys[i]
		for j, col := range cols {
			want[i*w+1+j] = col[oids[i]]
		}
	}
	views := []Col{{Enc: encode(t, cols[0])}, RawCol(cols[1])}
	keyCol := Col{Raw: keys, Enc: encode(t, keys)}
	withEngines(t, func(t *testing.T, e *Engine) {
		got, err := e.StitchRows(keyCol, views, oids)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: compressed stitch differs from raw", e.Workers())
		}
		// All-raw views must match too (the fallback the strategies use).
		raw, err := e.StitchRows(RawCol(keys), []Col{RawCol(cols[0]), RawCol(cols[1])}, oids)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(raw, want) {
			t.Fatalf("workers=%d: raw stitch differs", e.Workers())
		}
	})
}

func TestCompressedOpErrors(t *testing.T) {
	vals := randVals(51, 4*compress.BlockSize, false)
	enc := encode(t, vals)
	rel := nsm.New("rel", enc.Len()/4, 4)
	copy(rel.Data, vals)
	view := Rows{Rel: rel, Enc: enc}
	e := NewEngine(nil, 0)
	if _, err := e.ScanColumn(Rows{Rel: nsm.New("short", rel.Len()-1, 4), Enc: enc}, 0); err == nil {
		t.Fatal("image that is not the relation's accepted")
	}
	for _, v := range []Rows{view, {Rel: rel}} {
		if _, err := e.ScanColumn(v, 4); err == nil {
			t.Fatal("column outside width accepted")
		}
		if _, err := e.ScanProject(v, "p", []int{0, -1}); err == nil {
			t.Fatal("negative projection column accepted")
		}
		if err := e.GatherProjectInto(v, make([]int32, 4), 2, 1, []OID{0, 1}, []int{0, 1}); err == nil {
			t.Fatal("fields outside dst width accepted")
		}
		if err := e.GatherProjectInto(v, make([]int32, 3), 2, 0, []OID{0, 1}, []int{0, 1}); err == nil {
			t.Fatal("short dst accepted")
		}
	}
	if _, err := e.FetchMany([]Col{{Enc: enc}}, []OID{OID(enc.Len())}); err == nil {
		t.Fatal("out-of-range oid accepted")
	}
	if _, err := e.GatherProject(view, "g", []OID{OID(rel.Len())}, []int{0}); err == nil {
		t.Fatal("out-of-range record accepted by the compressed gather")
	}
}

// TestCompStatsAccounting pins the counter semantics: a compressed
// materialize accounts the whole column's encoded bytes, a positive
// saving for compressible data, and nonzero decode time.
func TestCompStatsAccounting(t *testing.T) {
	vals := make([]int32, testN)
	for i := range vals {
		vals[i] = int32(i) // dense: compresses hard
	}
	enc := encode(t, vals)
	e := NewEngine(testRuntime(t), 2)
	defer e.Close()
	if _, err := e.MaterializeCol(Col{Enc: enc}); err != nil {
		t.Fatal(err)
	}
	st := e.comp.snapshot()
	if st.Cols != 1 {
		t.Fatalf("Cols = %d, want 1", st.Cols)
	}
	if st.CompressedBytes < int64(enc.CompressedBytes()) {
		t.Fatalf("CompressedBytes = %d, want >= %d", st.CompressedBytes, enc.CompressedBytes())
	}
	if st.SavedBytes <= 0 {
		t.Fatalf("SavedBytes = %d, want > 0 for dense data", st.SavedBytes)
	}
	if st.DecodeNanos <= 0 {
		t.Fatalf("DecodeNanos = %d, want > 0", st.DecodeNanos)
	}
}
