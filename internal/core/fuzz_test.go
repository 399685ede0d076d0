package core_test

import (
	"math/rand/v2"
	"slices"
	"testing"

	"radixdecluster/internal/bat"
	"radixdecluster/internal/core"
	"radixdecluster/internal/exec"
)

// FuzzDecluster holds every Radix-Decluster driver to the pure scatter
// (core.ScatterDecluster, the independent oracle): core.Decluster, and
// exec's Decluster and DeclusterRowsInto on the serial engine and at
// nominal parallelism 1, 2 and 8 on a 2-worker runtime (cluster groups,
// per-worker windows), the rows at a random record width, output width
// and field offset. Inputs are random permutations clustered at 0–10 bits,
// with some clusters left empty, and windows from 1 to n tuples; sizes
// reach 2·exec.MinParallelN, so the parallel paths run. Run with
// `go test -run '^$' -fuzz '^FuzzDecluster$' ./internal/core/`; the
// seed corpus doubles as a regression test under plain `go test`.
func FuzzDecluster(f *testing.F) {
	f.Add(uint64(1), uint32(6), uint8(1), uint8(0), uint8(0), uint32(2))
	f.Add(uint64(2), uint32(5), uint8(0), uint8(1), uint8(5), uint32(0))
	f.Add(uint64(3), uint32(0), uint8(3), uint8(0), uint8(9), uint32(3))
	f.Add(uint64(4), uint32(3*exec.MinParallelN/2), uint8(8), uint8(2), uint8(14), uint32(4096))
	f.Add(uint64(5), uint32(exec.MinParallelN+7), uint8(10), uint8(3), uint8(35), uint32(1))
	rt := exec.NewRuntimeOpts(exec.Options{Workers: 2})
	f.Cleanup(rt.Close)
	f.Fuzz(func(t *testing.T, seed uint64, size uint32, bits8, empty8, shape8 uint8, win uint32) {
		n := int(size % (2*exec.MinParallelN + 1))
		bits, empty := int(bits8%11), int(empty8%4)
		window := int(win%uint32(max(n, 1))) + 1
		rng := rand.New(rand.NewPCG(seed, 33))
		ids, borders := clusteredPermutation(rng, n, bits, empty)
		values := make([]int32, n)
		for i := range values {
			values[i] = rng.Int32()
		}
		want, err := core.ScatterDecluster(values, ids)
		if err != nil {
			t.Fatal(err)
		}
		got, err := core.Decluster(values, ids, borders, window)
		if err != nil || !slices.Equal(got, want) {
			t.Fatalf("n=%d bits=%d window=%d: core.Decluster differs from the scatter (%v)", n, bits, window, err)
		}

		// Rows: width fields per tuple, into outWidth-wide records at
		// outOff; the fields around them keep their sentinel.
		width := 1 + int(shape8%4)
		outWidth := width + int(shape8/4%3)
		outOff := int(shape8/12) % (outWidth - width + 1)
		rows := make([]int32, n*width)
		for i := range rows {
			rows[i] = rng.Int32()
		}
		src, err := core.ScatterDecluster(bat.Dense(n), ids)
		if err != nil {
			t.Fatal(err)
		}
		const sentinel = -7
		wantRows := slices.Repeat([]int32{sentinel}, n*outWidth)
		for p, i := range src {
			copy(wantRows[p*outWidth+outOff:p*outWidth+outOff+width], rows[int(i)*width:(int(i)+1)*width])
		}
		for _, nominal := range []int{0, 1, 2, 8} { // 0: the serial paper engine
			e := exec.NewEngine(rt, nominal)
			got, err := e.Decluster(values, ids, borders, window)
			if err != nil || !slices.Equal(got, want) {
				e.Close()
				t.Fatalf("nominal %d n=%d bits=%d window=%d: exec.Decluster differs from the scatter (%v)", nominal, n, bits, window, err)
			}
			gotRows := slices.Repeat([]int32{sentinel}, n*outWidth)
			err = e.DeclusterRowsInto(gotRows, outWidth, outOff, rows, width, ids, borders, window)
			e.Close()
			if err != nil || !slices.Equal(gotRows, wantRows) {
				t.Fatalf("nominal %d n=%d bits=%d window=%d width=%d/%d+%d: exec.DeclusterRowsInto differs from the scatter (%v)",
					nominal, n, bits, window, width, outWidth, outOff, err)
			}
		}
	})
}

// clusteredPermutation returns a Radix-Decluster input over n tuples:
// the result positions [0,n) spread over 2^bits clusters, ascending
// within each (the two §3.2 properties), and the cluster borders. With
// empty > 0 only every (empty+1)-th cluster receives tuples, so the
// others stay empty.
func clusteredPermutation(rng *rand.Rand, n, bits, empty int) ([]core.OID, []bat.Border) {
	h := 1 << bits
	of := make([]int, n)
	offsets := make([]int, h+1)
	for p := range of {
		c := rng.IntN(h)
		c -= c % (empty + 1)
		of[p] = c
		offsets[c+1]++
	}
	for c := 0; c < h; c++ {
		offsets[c+1] += offsets[c]
	}
	borders := bat.BordersFromOffsets(offsets)
	ids := make([]core.OID, n)
	for p, c := range of {
		ids[offsets[c]] = core.OID(p)
		offsets[c]++
	}
	return ids, borders
}
