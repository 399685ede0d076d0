package radix

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"sort"
	"testing"

	"radixdecluster/internal/hash"
)

// refCluster is the oracle the kernels are held to: a stable sort of
// the tuples by their radix field, plus the cluster offsets.
func refCluster[K, P Word](keys []K, pay []P, hashed bool, bits, ignore int) ([]K, []P, []int) {
	field := func(k K) int {
		v := uint32(k)
		if hashed {
			v = hash.Mix(v)
		}
		return int(v >> uint(ignore) & (1<<bits - 1))
	}
	idx := make([]int, len(keys))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return field(keys[idx[a]]) < field(keys[idx[b]]) })
	outK, outP := make([]K, len(keys)), make([]P, len(keys))
	offsets := make([]int, 1<<bits+1)
	for d, i := range idx {
		outK[d], outP[d] = keys[i], pay[i]
		offsets[field(keys[i])+1]++
	}
	for c := 0; c < 1<<bits; c++ {
		offsets[c+1] += offsets[c]
	}
	return outK, outP, offsets
}

// chunkedPass runs one clustering pass over n tuples the way the
// parallel engine does — per-chunk histograms, the (cluster, chunk)
// prefix sum, per-chunk scatters — over the chunks that cuts (ascending
// positions in [0,n]) delimit. count and scatter apply a kernel pair to
// tuples [lo,hi); the cluster offsets are returned.
func chunkedPass(n int, f Field, cuts []int, count, scatter func(lo, hi int, row []int)) []int {
	h := int(f.Mask) + 1
	bounds := append(append([]int{0}, cuts...), n)
	rows := make([][]int, len(bounds)-1)
	for k := range rows {
		rows[k] = make([]int, h)
		count(bounds[k], bounds[k+1], rows[k])
	}
	offsets := make([]int, h+1)
	pos := 0
	for c := 0; c < h; c++ {
		offsets[c] = pos
		for k := range rows {
			rows[k][c], pos = pos, pos+rows[k][c]
		}
	}
	offsets[h] = pos
	for k := range rows {
		scatter(bounds[k], bounds[k+1], rows[k])
	}
	return offsets
}

// chunkedCluster runs the pass driver on o's passes with its first pass
// cut into nch chunks, every task inline and in reverse order — any
// order must give the same bytes — and returns the offsets.
func chunkedCluster(n int, o Opts, nch int, count, scatter ChunkFn) []int {
	passes := o.Schedule()
	offsets := make([]int, 1<<o.Bits+1)
	reversed := func(_, ntasks, rowLen int, body func(t int, row []int)) {
		for t := ntasks - 1; t >= 0; t-- {
			body(t, make([]int, rowLen))
		}
	}
	Cluster(offsets, make([]int, nch<<passes[0]), n, o.Ignore, passes, nch, reversed, count, scatter)
	return offsets
}

// unpackBUNs splits BUNs back into the [hash, payload] columns they
// carry.
func unpackBUNs[P Word](buns []uint64) ([]uint32, []P) {
	hs, pay := make([]uint32, len(buns)), make([]P, len(buns))
	for i, b := range buns {
		hs[i], pay[i] = BUNHash(b), P(BUNOID(b))
	}
	return hs, pay
}

// hashWords returns hash.Mix of every key: the hash half a BUN carries
// for it.
func hashWords[K Word](keys []K) []uint32 {
	out := make([]uint32, len(keys))
	for i, k := range keys {
		out[i] = hash.Mix(uint32(k))
	}
	return out
}

// compositions returns every ordered split of bits into passes for
// small bits, and for larger ones (where there are 2^(bits-1)) the
// balanced splits plus the two most lopsided.
func compositions(bits int) [][]int {
	if bits == 0 {
		return [][]int{nil}
	}
	if bits > 6 {
		return [][]int{nil, SplitBits(bits, 6), SplitBits(bits, 4), {1, bits - 1}, {bits - 1, 1}}
	}
	out := [][]int{nil}
	var rec func(left int, prefix []int)
	rec = func(left int, prefix []int) {
		if left == 0 {
			out = append(out, slices.Clone(prefix))
			return
		}
		for b := 1; b <= left; b++ {
			rec(left-b, append(prefix, b))
		}
	}
	rec(bits, nil)
	return out
}

// keyShapes are the value distributions the issue names: spread,
// all-equal, a few duplicated values, and heavy hitters.
var keyShapes = []struct {
	name string
	key  func(rng *rand.Rand, i int) uint32
}{
	{"random", func(rng *rand.Rand, _ int) uint32 { return rng.Uint32() }},
	{"equal", func(*rand.Rand, int) uint32 { return 0xdeadbeef }},
	{"duplicates", func(rng *rand.Rand, _ int) uint32 { return uint32(rng.IntN(5)) * 0x01010101 }},
	{"skewed", func(rng *rand.Rand, i int) uint32 {
		if i%4 != 0 {
			return 7
		}
		return rng.Uint32()
	}},
}

// randomCuts picks up to k ascending chunk cuts in [0,n], duplicates
// (empty chunks) included.
func randomCuts(rng *rand.Rand, n, k int) []int {
	cuts := make([]int, rng.IntN(k+1))
	for i := range cuts {
		cuts[i] = rng.IntN(n + 1)
	}
	sort.Ints(cuts)
	return cuts
}

// checkPairs holds one [key, payload] input to the oracle through both
// routes: the serial engine under every pass split, and one chunked
// pass under arbitrary cuts (single-level fan-outs only — that is all
// a chunked pass is used for). Unhashed, that is the column kernels of
// the [oid, oid] clusterings; hashed, the BUN kernels of a join input,
// whose unpacked output must be the reference's tuples with each key
// replaced by its hash.
func checkPairs[K, P Word](t *testing.T, rng *rand.Rand, keys []K, pay []P, hashed bool, bits, ignore int, splits [][]int) {
	t.Helper()
	n := len(keys)
	wantK, wantP, wantOff := refCluster(keys, pay, hashed, bits, ignore)
	wantH := hashWords(wantK)
	fail := func(what string, passes ...int) {
		t.Helper()
		t.Fatalf("n=%d hashed=%v bits=%d ignore=%d passes=%v: %s differs from the stable-sort reference", n, hashed, bits, ignore, passes, what)
	}
	same := func(what string, gotK []K, gotP []P, gotOff []int, passes ...int) {
		t.Helper()
		if !slices.Equal(gotK, wantK) || !slices.Equal(gotP, wantP) || !slices.Equal(gotOff, wantOff) {
			fail(what, passes...)
		}
	}
	sameBUNs := func(what string, buns []uint64, gotOff []int, passes ...int) {
		t.Helper()
		gotH, gotP := unpackBUNs[P](buns)
		if !slices.Equal(gotH, wantH) || !slices.Equal(gotP, wantP) || !slices.Equal(gotOff, wantOff) {
			fail(what, passes...)
		}
	}
	inK, inP := slices.Clone(keys), slices.Clone(pay)
	for _, passes := range splits {
		o := Opts{Bits: bits, Ignore: ignore, Passes: passes}
		if err := o.Validate(); err != nil {
			t.Fatal(err)
		}
		r, nch := Result(o.Schedule()), 1+rng.IntN(4)
		if !hashed {
			gotK, gotP, gotOff := clusterPairs(pingPong[K](n, o), pingPong[P](n, o), keys, pay, o)
			same("serial engine", gotK, gotP, gotOff, passes...)
			bufK, bufP := pingPong[K](n, o), pingPong[P](n, o)
			count, scatter := PairKernels(keys, pay, bufK, bufP)
			gotOff = chunkedCluster(n, o, nch, count, scatter)
			same(fmt.Sprintf("driver over %d chunks", nch), bufK[r], bufP[r], gotOff, passes...)
			continue
		}
		buns, gotOff := clusterBUNs(pingPong[uint64](n, o), keys, pay, o)
		sameBUNs("serial BUN engine (pack→BUN→BUN)", buns, gotOff, passes...)
		buf := pingPong[uint64](n, o)
		count, scatter := BUNKernels(keys, pay, buf)
		gotOff = chunkedCluster(n, o, nch, count, scatter)
		sameBUNs(fmt.Sprintf("BUN driver over %d chunks", nch), buf[r], gotOff, passes...)
	}

	f := Field{Shift: uint(ignore), Mask: uint32(1<<bits - 1)}
	count := func(lo, hi int, row []int) { Histogram(keys[lo:hi], hashed, f, row) }
	if !hashed {
		gotK, gotP := make([]K, n), make([]P, n)
		gotOff := chunkedPass(n, f, randomCuts(rng, n, 5), count, func(lo, hi int, cur []int) {
			Scatter(keys[lo:hi], pay[lo:hi], f, cur, gotK, gotP)
		})
		same("chunked pass", gotK, gotP, gotOff)
		if !slices.Equal(keys, inK) || !slices.Equal(pay, inP) {
			t.Fatalf("n=%d bits=%d: clustering wrote to its input", n, bits)
		}
		return
	}

	packed := make([]uint64, n)
	gotOff := chunkedPass(n, f, randomCuts(rng, n, 5), count, func(lo, hi int, cur []int) {
		ScatterPack(keys[lo:hi], pay[lo:hi], f, cur, packed)
	})
	sameBUNs("chunked ScatterPack pass", packed, gotOff)

	// BUN → BUN: pack in input order (a one-cluster pass, itself cut
	// into chunks), then cluster the BUNs on the hash they carry.
	chunkedPass(n, Field{}, randomCuts(rng, n, 5), func(lo, hi int, row []int) { row[0] = hi - lo },
		func(lo, hi int, cur []int) { ScatterPack(keys[lo:hi], pay[lo:hi], Field{}, cur, packed) })
	inB, moved := slices.Clone(packed), make([]uint64, n)
	gotOff = chunkedPass(n, f, randomCuts(rng, n, 5),
		func(lo, hi int, row []int) { HistogramBUN(packed[lo:hi], f, row) },
		func(lo, hi int, cur []int) { ScatterBUN(packed[lo:hi], f, cur, moved) })
	sameBUNs("chunked BUN→BUN pass", moved, gotOff)

	if !slices.Equal(keys, inK) || !slices.Equal(pay, inP) || !slices.Equal(packed, inB) {
		t.Fatalf("n=%d bits=%d: clustering wrote to its input", n, bits)
	}
}

// checkRows is checkPairs for the row-major kernels: the expected
// records are the input records permuted as the oracle permutes their
// (key, index) pairs.
func checkRows(t *testing.T, rng *rand.Rand, keys []uint32, bits, ignore int, splits [][]int) {
	t.Helper()
	const width, keyCol = 3, 1
	n := len(keys)
	rows := make([]int32, n*width)
	rowKeys, idx := make([]int32, n), make([]uint32, n)
	for i, k := range keys {
		rows[i*width], rows[i*width+keyCol], rows[i*width+2] = int32(i), int32(k), int32(^i)
		rowKeys[i], idx[i] = int32(k), uint32(i)
	}
	_, perm, wantOff := refCluster(rowKeys, idx, true, bits, ignore)
	want := make([]int32, 0, len(rows))
	for _, i := range perm {
		want = append(want, rows[int(i)*width:int(i+1)*width]...)
	}
	in := slices.Clone(rows)
	for _, passes := range splits {
		o := Opts{Bits: bits, Ignore: ignore, Passes: passes}
		res := freshRows(rows, width, keyCol, o)
		if !slices.Equal(res.Rows, want) || !slices.Equal(res.Offsets, wantOff) {
			t.Fatalf("n=%d bits=%d ignore=%d passes=%v: the row clustering differs from the stable-sort reference", n, bits, ignore, passes)
		}
		nch := 1 + rng.IntN(4)
		buf := pingPong[int32](len(rows), o)
		count, scatter := RowKernels(rows, width, keyCol, buf)
		gotOff := chunkedCluster(n, o, nch, count, scatter)
		if !slices.Equal(buf[Result(o.Schedule())], want) || !slices.Equal(gotOff, wantOff) {
			t.Fatalf("n=%d bits=%d ignore=%d passes=%v nch=%d: the chunked row clustering differs from the stable-sort reference", n, bits, ignore, passes, nch)
		}
	}
	f := Field{Shift: uint(ignore), Mask: uint32(1<<bits - 1)}
	got := make([]int32, len(rows))
	gotOff := chunkedPass(n, f, randomCuts(rng, n, 5),
		func(lo, hi int, row []int) { HistogramRows(rows[lo*width:hi*width], width, keyCol, f, row) },
		func(lo, hi int, cur []int) { ScatterRows(rows[lo*width:hi*width], width, keyCol, f, cur, got) })
	if !slices.Equal(got, want) || !slices.Equal(gotOff, wantOff) {
		t.Fatalf("n=%d bits=%d ignore=%d: chunked rows pass differs from the one-chunk result", n, bits, ignore)
	}
	if !slices.Equal(rows, in) {
		t.Fatalf("n=%d bits=%d: the row clustering wrote to its input records", n, bits)
	}
}

// checkImage holds the join-image kernels to the oracle: over every
// pass split and a few chunkings, ImageKernels must leave the hashes of
// the reference's keys and the reference's order of both columns — and,
// over one pass and with no hash buffer, of a column moved alone.
func checkImage(t *testing.T, rng *rand.Rand, keys, pay []int32, bits, ignore int, splits [][]int) {
	t.Helper()
	n := len(keys)
	wantK, wantP, wantOff := refCluster(keys, pay, true, bits, ignore)
	wantH := hashWords(wantK)
	for _, passes := range splits {
		o := Opts{Bits: bits, Ignore: ignore, Passes: passes}
		r, nch := Result(o.Schedule()), 1+rng.IntN(4)
		hs, bufs := pingPong[uint32](n, o), [][2][]int32{pingPong[int32](n, o), pingPong[int32](n, o)}
		count, scatter := ImageKernels(keys, [][]int32{keys, pay}, hs, bufs)
		gotOff := chunkedCluster(n, o, nch, count, scatter)
		if !slices.Equal(hs[r], wantH) || !slices.Equal(bufs[0][r], wantK) || !slices.Equal(bufs[1][r], wantP) || !slices.Equal(gotOff, wantOff) {
			t.Fatalf("n=%d bits=%d ignore=%d passes=%v nch=%d: the image clustering differs from the stable-sort reference", n, bits, ignore, passes, nch)
		}
		if o.NumPasses() > 1 {
			continue
		}
		bufs = [][2][]int32{pingPong[int32](n, o)}
		count, scatter = ImageKernels(keys, [][]int32{pay}, [2][]uint32{}, bufs)
		if gotOff := chunkedCluster(n, o, nch, count, scatter); !slices.Equal(bufs[0][0], wantP) || !slices.Equal(gotOff, wantOff) {
			t.Fatalf("n=%d bits=%d ignore=%d nch=%d: a column moved alone differs from the stable-sort reference", n, bits, ignore, nch)
		}
	}
}

// checkAll runs one key column through every kernel instantiation the
// engines use, and a few more: [int32 value, oid] pairs as BUNs and
// columns, [oid, oid] pairs, BUNs with an int32 payload, records, and a
// join image's hashes and columns.
func checkAll(t *testing.T, rng *rand.Rand, keys []uint32, bits, ignore int, splits [][]int) {
	t.Helper()
	vals, oids, ipay := make([]int32, len(keys)), make([]OID, len(keys)), make([]int32, len(keys))
	for i, k := range keys {
		vals[i], oids[i], ipay[i] = int32(k), OID(i), int32(-i)
	}
	checkPairs(t, rng, vals, oids, true, bits, ignore, splits)
	checkPairs(t, rng, vals, oids, false, bits, ignore, splits)
	checkPairs(t, rng, keys, oids, false, bits, ignore, splits)
	checkPairs(t, rng, keys, ipay, true, bits, ignore, splits)
	checkRows(t, rng, keys, bits, ignore, splits)
	checkImage(t, rng, vals, ipay, bits, ignore, splits)
}

func TestKernelsMatchStableSort(t *testing.T) {
	rng := rand.New(rand.NewPCG(12, 34))
	sizes := []int{0, 1, 3, 15, 16, 17, 127, 128, 129, 1025}
	for bits := 0; bits <= 13; bits++ {
		splits := compositions(bits)
		for ignore := 0; ignore <= 8; ignore++ {
			// Every size meets every (bits, ignore); the key shape and
			// the larger sizes rotate so the matrix stays under a second.
			for si, n := range sizes {
				shape := keyShapes[(bits+ignore+si)%len(keyShapes)]
				if n > 129 && (bits+ignore)%3 != 0 {
					continue
				}
				keys := make([]uint32, n)
				for i := range keys {
					keys[i] = shape.key(rng, i)
				}
				checkAll(t, rng, keys, bits, ignore, splits)
			}
		}
	}
}

func TestKernelsAllocateNothing(t *testing.T) {
	const n, width = 4096, 3
	rng := rand.New(rand.NewPCG(5, 6))
	vals, oids := make([]int32, n), make([]OID, n)
	for i := range vals {
		vals[i], oids[i] = int32(rng.Uint32()), OID(i)
	}
	rows := make([]int32, n*width)
	for i := range rows {
		rows[i] = int32(rng.Uint32())
	}
	dstV, dstO, dstRows := make([]int32, n), make([]OID, n), make([]int32, n*width)
	buns, dstB := make([]uint64, n), make([]uint64, n)
	row := make([]int, 64)
	cursors := func() {
		pos := 0
		for c, cnt := range row {
			row[c], pos = pos, pos+cnt
		}
	}
	dstH, hashesOut := make([]uint32, n), make([]uint32, n)
	cols := [][]int32{vals, rows[:n]}
	dstCols, movedCols := [][]int32{make([]int32, n), make([]int32, n)}, [][]int32{dstV, rows[n : 2*n]}
	f := Field{Shift: 3, Mask: 63}
	for name, run := range map[string]func(){
		"pairs": func() {
			clear(row)
			Histogram(vals, false, f, row)
			cursors()
			Scatter(vals, oids, f, row, dstV, dstO)
		},
		"oid pairs": func() {
			clear(row)
			Histogram(oids, false, f, row)
			cursors()
			Scatter(oids, oids, f, row, dstO, dstO)
		},
		"BUN": func() {
			clear(row)
			Histogram(vals, true, f, row)
			cursors()
			ScatterPack(vals, oids, f, row, buns)
			clear(row)
			HistogramBUN(buns, f, row)
			cursors()
			ScatterBUN(buns, f, row, dstB)
		},
		"image": func() {
			clear(row)
			Histogram(vals, true, f, row)
			cursors()
			ScatterImage(vals, true, cols, 0, f, row, dstH, dstCols)
			clear(row)
			Histogram(dstH, false, f, row)
			cursors()
			ScatterImage(dstH, false, dstCols, 0, f, row, hashesOut, movedCols)
		},
		"rows": func() {
			clear(row)
			HistogramRows(rows, width, 1, f, row)
			cursors()
			ScatterRows(rows, width, 1, f, row, dstRows)
		},
	} {
		if allocs := testing.AllocsPerRun(10, run); allocs != 0 {
			t.Errorf("%s kernels: %v allocs per count+scatter, want 0", name, allocs)
		}
	}
}

// FuzzClusterKernel holds the kernels to the stable-sort oracle on
// arbitrary keys, radix fields, pass splits and chunk cuts. Run with
// `go test -fuzz=FuzzClusterKernel ./internal/radix`; the seed corpus
// runs under plain `go test`.
func FuzzClusterKernel(f *testing.F) {
	f.Add([]byte{}, uint8(0), uint8(0), uint64(0))
	f.Add([]byte{1}, uint8(1), uint8(0), uint64(1))
	f.Add([]byte{7, 7, 7, 7, 7, 7, 7, 7, 7}, uint8(6), uint8(2), uint64(2))
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}, uint8(13), uint8(8), uint64(3))
	f.Add([]byte{255, 0, 255, 0, 128, 64, 32, 16, 8, 4, 2, 1, 3, 3, 3}, uint8(12), uint8(5), uint64(0xfeed))
	f.Fuzz(func(t *testing.T, raw []byte, bits8, ignore8 uint8, seed uint64) {
		bits, ignore := int(bits8%14), int(ignore8%9)
		rng := rand.New(rand.NewPCG(seed, 99))
		// Each byte is a key, spread over the 32 bits by one of two
		// multipliers so both narrow (duplicate-heavy) and wide domains
		// reach every radix field.
		mul := uint32(1)
		if seed&1 == 1 {
			mul = 0x9e3779b1
		}
		keys := make([]uint32, len(raw))
		for i, b := range raw {
			keys[i] = uint32(b) * mul
		}
		// A pass split drawn from the seed, next to the single pass.
		splits := [][]int{nil}
		if bits > 0 {
			var passes []int
			for left := bits; left > 0; {
				b := 1 + rng.IntN(left)
				passes = append(passes, b)
				left -= b
			}
			splits = append(splits, passes)
		}
		checkAll(t, rng, keys, bits, ignore, splits)
	})
}
