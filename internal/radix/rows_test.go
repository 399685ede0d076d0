package radix_test

import (
	"math/rand/v2"
	"testing"

	"radixdecluster/internal/bat"
	"radixdecluster/internal/exec"
	"radixdecluster/internal/hash"
	"radixdecluster/internal/radix"
)

// Row-major records are clustered by the engine (exec.Engine.ClusterRows
// over radix.RowKernels and the pass driver); these tests run the serial
// engine. kernel_test.go holds the row kernels to the stable-sort
// oracle under every pass split and chunking.

// serialEngine is the serial paper engine, closed with the test.
func serialEngine(t *testing.T) *exec.Engine {
	t.Helper()
	e := exec.NewEngine(nil, 0)
	t.Cleanup(e.Close)
	return e
}

func TestClusterRows(t *testing.T) {
	const n, w = 300, 4
	rng := rand.New(rand.NewPCG(11, 0))
	rows := make([]int32, n*w)
	for i := 0; i < n; i++ {
		rows[i*w] = int32(rng.Uint32() % 1000) // key column 0
		for j := 1; j < w; j++ {
			rows[i*w+j] = int32(i) // row id in payload
		}
	}
	o := radix.Opts{Bits: 3, Passes: []int{2, 1}}
	res, err := serialEngine(t).ClusterRows(rows, w, 0, o)
	if err != nil {
		t.Fatal(err)
	}
	borders := bat.BordersFromOffsets(res.Offsets)
	if err := bat.ValidateBorders(borders, n); err != nil {
		t.Fatal(err)
	}
	mask := uint32(1<<o.Bits - 1)
	for c, b := range borders {
		for i := b.Start; i < b.End; i++ {
			key := res.Rows[i*w]
			if got := hash.Int32(key) & mask; got != uint32(c) {
				t.Fatalf("row %d in cluster %d has radix %d", i, c, got)
			}
			// Row must be intact: payload carries the original row id.
			id := res.Rows[i*w+1]
			for j := 2; j < w; j++ {
				if res.Rows[i*w+j] != id {
					t.Fatalf("row %d torn apart", i)
				}
			}
			if rows[int(id)*w] != key {
				t.Fatalf("row %d key does not match origin %d", i, id)
			}
		}
	}
}

func TestClusterRowsErrors(t *testing.T) {
	if _, err := serialEngine(t).ClusterRows(make([]int32, 10), 3, 0, radix.Opts{Bits: 1}); err == nil {
		t.Fatal("non-multiple length not rejected")
	}
	if _, err := serialEngine(t).ClusterRows(make([]int32, 9), 3, 3, radix.Opts{Bits: 1}); err == nil {
		t.Fatal("key column out of range not rejected")
	}
}
