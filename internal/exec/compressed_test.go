package exec

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"

	"radixdecluster/internal/bat"
	"radixdecluster/internal/compress"
	"radixdecluster/internal/join"
	"radixdecluster/internal/nsm"
	"radixdecluster/internal/radix"
	"radixdecluster/internal/workload"
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

// denseFetch decodes enc on e through the one operator that reads an
// encoding: ProjectImages over a key-FK image whose partitions start at
// offs (closed by enc.Len()) and whose one larger column is enc, each
// larger tuple matching its own smaller one — the key-FK case, decoded
// straight into the result.
func denseFetch(t *testing.T, e *Engine, enc *compress.Encoded, offs ...int) []int32 {
	t.Helper()
	n := enc.Len()
	img := join.Image{Hashes: make([]uint32, n), Offsets: append(slices.Clone(offs), n), Distinct: true}
	for i := range img.Hashes {
		img.Hashes[i] = uint32(i)
	}
	larger := &Image{Image: img, Cols: []ImageCol{{Enc: enc}}}
	pr, err := e.ProjectImages(larger, &Image{Image: img}, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	if pr.N != n {
		t.Fatalf("%d rows of a key-FK image of %d", pr.N, n)
	}
	return pr.Larger[0]
}

// decoded is enc decoded on e, the whole column as one partition.
func decoded(t *testing.T, e *Engine, enc *compress.Encoded) []int32 {
	t.Helper()
	return denseFetch(t, e, enc, 0)
}

// decodedRelation is rel's record image encoded, then decoded on e.
func decodedRelation(t *testing.T, e *Engine, rel *nsm.Relation) *nsm.Relation {
	t.Helper()
	return &nsm.Relation{Name: rel.Name, Width: rel.Width, Data: decoded(t, e, encode(t, rel.Data))}
}

// withEngines runs f on the serial engine, on leases of every nominal
// test worker count, and on a lease of a second runtime — every
// operator must be byte-identical across all, whatever it is fed.
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
	other := NewRuntimeOpts(Options{Workers: 2, MaxConcurrent: 2})
	defer other.Close()
	oe := NewEngine(other, 2)
	defer oe.Close()
	t.Run("sharescans", func(t *testing.T) { f(t, oe) })
}

// TestMaterializeColMatchesRaw: a key-FK image projection of an encoded
// column reproduces the raw column — over one partition, and over
// 1000-value partitions whose edges split blocks, so neighbouring
// partitions decode a shared block each.
func TestMaterializeColMatchesRaw(t *testing.T) {
	vals := randVals(41, testN, false)
	enc := encode(t, vals)
	var offs []int
	for lo := 0; lo < len(vals); lo += 1000 {
		offs = append(offs, lo)
	}
	withEngines(t, func(t *testing.T, e *Engine) {
		if got := decoded(t, e, enc); !slices.Equal(got, vals) {
			t.Fatalf("workers=%d: column decoded by one partition differs from raw", e.Workers())
		}
		if got := denseFetch(t, e, enc, offs...); !slices.Equal(got, vals) {
			t.Fatalf("workers=%d: column decoded by %d partitions differs from raw", e.Workers(), len(offs))
		}
	})
}

// The MatchesRaw tests below hold each operator to itself over decoded
// and over raw arrays: a mixed input list — one column decoded, one
// raw — where the operator takes several.

func TestFetchManyMatchesRaw(t *testing.T) {
	n := heavyN()
	cols := [][]int32{randVals(42, n, false), randVals(43, n, true)}
	oids := randOIDs(44, n, n)
	enc := encode(t, cols[0])
	withEngines(t, func(t *testing.T, e *Engine) {
		want, err := e.FetchMany(cols, oids)
		if err != nil {
			t.Fatal(err)
		}
		got, err := e.FetchMany([][]int32{decoded(t, e, enc), cols[1]}, oids)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: FetchMany over a decoded column differs from raw", e.Workers())
		}
		if e.comp.snapshot().Cols != 1 {
			t.Fatalf("workers=%d: %d decoded columns accounted, want 1", e.Workers(), e.comp.snapshot().Cols)
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
		want, err := e.Clustered(col, oids, borders)
		if err != nil {
			t.Fatal(err)
		}
		got, err := e.Clustered(decoded(t, e, enc), oids, borders)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: Clustered over a decoded column differs from raw", e.Workers())
		}
	})
}

func TestScanColumnMatchesRaw(t *testing.T) {
	const width = 4
	rel := testRelation(47, testN, width)
	for col := 0; col < width; col++ {
		withEngines(t, func(t *testing.T, e *Engine) {
			want, err := e.ScanColumn(rel, col)
			if err != nil {
				t.Fatal(err)
			}
			got, err := e.ScanColumn(decodedRelation(t, e, rel), col)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("workers=%d col=%d: scan of the decoded image differs from raw", e.Workers(), col)
			}
		})
	}
}

func TestScanProjectMatchesRaw(t *testing.T) {
	const width = 5
	rel := testRelation(48, testN, width)
	cols := []int{3, 0, 4}
	withEngines(t, func(t *testing.T, e *Engine) {
		want, err := e.ScanProject(rel, "proj", cols)
		if err != nil {
			t.Fatal(err)
		}
		got, err := e.ScanProject(decodedRelation(t, e, rel), "proj", cols)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: project scan of the decoded image differs from raw", e.Workers())
		}
	})
}

func TestGatherProjectMatchesRaw(t *testing.T) {
	const width = 4
	n := heavyN()
	rel := testRelation(49, n, width)
	oids := randOIDs(50, n, n)
	cols := []int{2, 1}
	withEngines(t, func(t *testing.T, e *Engine) {
		want, err := e.GatherProject(rel, "g", oids, cols)
		if err != nil {
			t.Fatal(err)
		}
		image := decodedRelation(t, e, rel)
		got, err := e.GatherProject(image, "g", oids, cols)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: gather from the decoded image differs from raw", e.Workers())
		}
		// Strided in-place variant.
		dst := make([]int32, len(oids)*3)
		if err := e.GatherProjectInto(image, dst, 3, 1, oids, cols); err != nil {
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
	keyEnc, colEnc := encode(t, keys), encode(t, cols[0])
	withEngines(t, func(t *testing.T, e *Engine) {
		got, err := e.StitchRows(decoded(t, e, keyEnc), [][]int32{decoded(t, e, colEnc), cols[1]}, oids)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: stitch over decoded columns differs from raw", e.Workers())
		}
		raw, err := e.StitchRows(keys, cols, oids)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(raw, want) {
			t.Fatalf("workers=%d: raw stitch differs", e.Workers())
		}
	})
}

// TestCompressedOpErrors: the operators reject bad input over decoded
// arrays exactly as over raw ones.
func TestCompressedOpErrors(t *testing.T) {
	vals := randVals(51, 4*compress.BlockSize, false)
	rel := nsm.New("rel", len(vals)/4, 4)
	copy(rel.Data, vals)
	e := NewEngine(nil, 0)
	defer e.Close()
	for _, r := range []*nsm.Relation{decodedRelation(t, e, rel), rel} {
		if _, err := e.ScanColumn(r, 4); err == nil {
			t.Fatal("column outside width accepted")
		}
		if _, err := e.ScanProject(r, "p", []int{0, -1}); err == nil {
			t.Fatal("negative projection column accepted")
		}
		if err := e.GatherProjectInto(r, make([]int32, 4), 2, 1, []OID{0, 1}, []int{0, 1}); err == nil {
			t.Fatal("fields outside dst width accepted")
		}
		if err := e.GatherProjectInto(r, make([]int32, 3), 2, 0, []OID{0, 1}, []int{0, 1}); err == nil {
			t.Fatal("short dst accepted")
		}
	}
	col := decoded(t, e, encode(t, vals))
	if _, err := e.FetchMany([][]int32{col}, []OID{OID(len(col))}); err == nil {
		t.Fatal("out-of-range oid accepted")
	}
	if _, err := e.StitchRows(col, nil, []OID{0}); err == nil {
		t.Fatal("oids that are not the keys' accepted")
	}
}

// TestCompStatsAccounting pins the counter semantics: a key-FK image
// projection over partitions on block edges accounts the whole column's
// encoded bytes exactly once, a positive saving for compressible data,
// and nonzero decode time — at every parallelism, over a column of
// 150 000 values (147 blocks, the last partial) cut into 16-block
// partitions, the last one short.
func TestCompStatsAccounting(t *testing.T) {
	vals := make([]int32, 150_000)
	for i := range vals {
		vals[i] = int32(i) // dense: compresses hard
	}
	enc := encode(t, vals)
	var offs []int
	for lo := 0; lo < len(vals); lo += 16 * compress.BlockSize {
		offs = append(offs, lo)
	}
	rt := testRuntime(t)
	for _, w := range []int{0, 2, 3, 8} {
		e := NewEngine(rt, w)
		if got := denseFetch(t, e, enc, offs...); !slices.Equal(got, vals) {
			t.Fatalf("workers=%d: decoded column differs", w)
		}
		st := e.comp.snapshot()
		e.Close()
		if st.Cols != 1 {
			t.Fatalf("workers=%d: Cols = %d, want 1", w, st.Cols)
		}
		if st.CompressedBytes != int64(enc.CompressedBytes()) {
			t.Fatalf("workers=%d: CompressedBytes = %d, want %d", w, st.CompressedBytes, enc.CompressedBytes())
		}
		if want := int64(enc.RawBytes() - enc.CompressedBytes()); st.SavedBytes != want {
			t.Fatalf("workers=%d: SavedBytes = %d, want %d", w, st.SavedBytes, want)
		}
		if st.DecodeNanos <= 0 {
			t.Fatalf("workers=%d: DecodeNanos = %d, want > 0", w, st.DecodeNanos)
		}
	}
}

// TestProjectImagesLastPartitionSparse: joins that are key-FK in every
// partition but one, odd, so the second morsel per partition writes the
// result. Over a Distinct smaller image, the last partition has one
// larger tuple that misses, or a middle one has no matches at all — on
// the serial engine and at nominal 1 the list of the partition after it
// then starts below that partition's image range (Scratch.carve), and
// its key-FK rows must still be copied from the range. Over a smaller
// image that is not Distinct, a middle partition whose smaller keys all
// come twice outgrows its carving. On the serial engine, at nominal 1
// and at nominal 2 on a 2-worker runtime, the bytes must be
// posjoin.FetchInto's over join.PartitionedImagesInto's join-index,
// with no column a view, and the blocks decoded exactly those of the
// partitions with matches. The larger side's first column is encoded;
// the smaller side pairs its raw columns, alone (three raw: a pair and
// an odd one) or around an encoded one.
func TestProjectImagesLastPartitionSparse(t *testing.T) {
	const bits, n = 4, 2 * MinParallelN
	h := 1 << bits
	rt := testRuntime(t)
	for _, shape := range []string{"last misses", "middle misses", "middle overflows"} {
		for _, mix := range []uint8{0, 0b010} {
			rng := rand.New(rand.NewPCG(41, uint64(mix)))
			sk, lk := rng.Perm(n), make([]int, n)
			for i := range lk {
				lk[i] = rng.IntN(n)
			}
			// A larger key of partition odd that moves past the smaller
			// domain, within its partition, misses.
			miss := h * (n/h + 1)
			odd := h / 2
			switch shape {
			case "last misses":
				odd = h - 1
				lk[slices.IndexFunc(lk, func(k int) bool { return partOf(k, bits, 0) == odd })] += miss
			case "middle misses":
				for i, k := range lk {
					if partOf(k, bits, 0) == odd {
						lk[i] += miss
					}
				}
			default:
				for k := odd; k < n; k += h {
					sk = append(sk, k)
				}
			}
			larger := fuzzImage(rng, lk, bits, 0, 3, 0b001)
			smaller := fuzzImage(rng, sk, bits, 0, 3, mix)
			smaller.img.Distinct = imageDistinct(t, rt, &smaller.img, bits)
			if smaller.img.Distinct != (shape != "middle overflows") {
				t.Fatalf("%s: the smaller side found Distinct=%v", shape, smaller.img.Distinct)
			}
			ix := probeImages(t, &larger, &smaller, bits)
			lOffs := larger.img.Offsets
			for p := range h {
				m, k := ix.Parts[p+1]-ix.Parts[p], lOffs[p+1]-lOffs[p]
				want := k
				if p == odd {
					want = map[string]int{"last misses": k - 1, "middle misses": 0, "middle overflows": 2 * k}[shape]
				}
				if k == 0 || m != want {
					t.Fatalf("%s: partition %d of %d: %d matches over %d tuples", shape, p, h, m, k)
				}
			}
			// Every encoded block a partition with matches reads, once per
			// such partition.
			var wantBytes int64
			for p := range h {
				if ix.Parts[p] == ix.Parts[p+1] {
					continue
				}
				for _, side := range []*imageSide{&larger, &smaller} {
					lo, hi := side.img.Offsets[p], side.img.Offsets[p+1]
					for _, enc := range side.encs {
						for b := lo / compress.BlockSize; enc != nil && b*compress.BlockSize < hi; b++ {
							wantBytes += int64(enc.BlockBytes(b))
						}
					}
				}
			}
			wantL, wantS := larger.fetch(t, ix.Larger), smaller.fetch(t, ix.Smaller)
			li, si := larger.image(), smaller.image()
			for _, e := range []*Engine{NewEngine(nil, 0), NewEngine(rt, 1), NewEngine(rt, 2)} {
				got, err := e.ProjectImages(li, si, bits, true)
				if err != nil {
					t.Fatal(err)
				}
				tag := fmt.Sprintf("%s, mix %03b, workers %d", shape, mix, e.workers)
				if got.N != ix.Len() || slices.Contains(got.Views, true) {
					t.Fatalf("%s: %d rows (views %v), the join-index %d", tag, got.N, got.Views, ix.Len())
				}
				for c := range wantL {
					if !slices.Equal(got.Larger[c], wantL[c]) {
						t.Fatalf("%s: larger column %d differs from FetchInto over the join-index", tag, c)
					}
				}
				for c := range wantS {
					if !slices.Equal(got.Smaller[c], wantS[c]) {
						t.Fatalf("%s: smaller column %d differs from FetchInto over the join-index", tag, c)
					}
				}
				if st := e.comp.snapshot(); st.CompressedBytes != wantBytes {
					t.Fatalf("%s: decoded %d encoded bytes, the partitions with matches hold %d", tag, st.CompressedBytes, wantBytes)
				}
				e.Close()
			}
		}
	}
}

// TestBuildImageMatchesSerial: a join image built on a 2-worker runtime,
// at nominal 2 and 8, is the serial engine's build byte for byte —
// offsets, hashes, Distinct, raw columns and encodings — and so is a
// column added to it later; below MinParallelN (every step inline) and
// above it, at join bits 0, 6 and 13 (13 refines per first-pass cluster
// on the runtime), hit rates 0.3, 1 and 3, on both sides. The serial
// reference runs one pass of all bits and, past 6 bits, passes of at
// most 6 too, which must agree.
func TestBuildImageMatchesSerial(t *testing.T) {
	big := 150000
	if raceEnabled {
		big = 40000
	}
	rt := testRuntime(t)
	build := func(e *Engine, keys []int32, o radix.Opts, cluster bool, cols []buildCol) imageBuild {
		t.Helper()
		b, err := e.buildImage(keys, o, cluster, cols)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	same := func(tag string, got, want imageBuild) {
		t.Helper()
		if !slices.Equal(got.Offsets, want.Offsets) || !slices.Equal(got.Hashes, want.Hashes) || got.Distinct != want.Distinct {
			t.Fatalf("%s: offsets, hashes or Distinct (%v, want %v) differ from the serial build", tag, got.Distinct, want.Distinct)
		}
		for j := range want.cols {
			g, w := got.cols[j], want.cols[j]
			if !slices.Equal(g.Raw, w.Raw) || (g.Enc == nil) != (w.Enc == nil) || g.Enc != nil && !reflect.DeepEqual(*g.Enc, *w.Enc) {
				t.Fatalf("%s: column %d differs from the serial build", tag, j)
			}
		}
	}
	seen := map[bool]bool{}
	for _, n := range []int{MinParallelN - 1, big} {
		for _, hit := range []float64{0.3, 1, 3} {
			pr, err := workload.GenPair(workload.Params{N: n, Omega: 3, HitRate: hit, SelLarger: 1, SelSmaller: 1, Seed: 45})
			if err != nil {
				t.Fatal(err)
			}
			for s, side := range []*workload.Relation{pr.Larger, pr.Smaller} {
				keys, a1, a2 := side.Key(), side.PayloadCol(1), side.PayloadCol(2)
				// a1 raw, a2 and the key column encoded; a2 raw added later.
				cols := []buildCol{{vals: a1}, {vals: a2, encode: true}, {vals: keys, encode: true}}
				added := []buildCol{{vals: a2}}
				for _, bits := range []int{0, 6, 13} {
					o := radix.Opts{Bits: bits}
					se := NewEngine(nil, 0)
					want, wantAdd := build(se, keys, o, true, cols), build(se, keys, o, false, added)
					if bits > 6 {
						multi := radix.Opts{Bits: bits, Passes: radix.SplitBits(bits, 6)}
						same(fmt.Sprintf("N=%d hit=%g side %d bits=%d serial passes %v", n, hit, s, bits, multi.Passes),
							build(se, keys, multi, true, cols), want)
					}
					se.Close()
					seen[want.Distinct] = true
					for _, w := range []int{2, 8} {
						tag := fmt.Sprintf("N=%d hit=%g side %d bits=%d nominal %d", n, hit, s, bits, w)
						e := NewEngine(rt, w)
						same(tag, build(e, keys, o, true, cols), want)
						got := build(e, keys, o, false, added)
						if got.Hashes != nil || got.Offsets != nil || !slices.Equal(got.cols[0].Raw, wantAdd.cols[0].Raw) {
							t.Fatalf("%s: the added column differs from the serial build's", tag)
						}
						e.Close()
					}
				}
			}
		}
	}
	if !seen[true] || !seen[false] {
		t.Fatalf("the matrix built Distinct images %v and non-distinct ones %v: it must build both", seen[true], seen[false])
	}
}
