package join_test

import (
	"math/rand/v2"
	"testing"

	"radixdecluster/internal/exec"
	"radixdecluster/internal/join"
	"radixdecluster/internal/radix"
)

// The pre-projection Partitioned Hash-Join over wide tuples is the
// engine's (exec.Engine.PartitionedRowsJoin, here the serial engine):
// these tests hold it to the one-table reference join.HashRowsRef and
// the input checks.

// serialEngine is the serial paper engine, closed with the test.
func serialEngine(t *testing.T) *exec.Engine {
	t.Helper()
	e := exec.NewEngine(nil, 0)
	t.Cleanup(e.Close)
	return e
}

func TestPartitionedRowsMatchesHashRows(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 5))
	const nL, nS, lw, sw = 500, 300, 4, 3
	larger := make([]int32, nL*lw)
	for i := 0; i < nL; i++ {
		larger[i*lw] = int32(rng.IntN(100))
		for j := 1; j < lw; j++ {
			larger[i*lw+j] = int32(i*10 + j)
		}
	}
	smaller := make([]int32, nS*sw)
	for i := 0; i < nS; i++ {
		smaller[i*sw] = int32(rng.IntN(100))
		for j := 1; j < sw; j++ {
			smaller[i*sw+j] = int32(-(i*10 + j))
		}
	}
	want, err := join.HashRowsRef(larger, lw, 0, smaller, sw, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, err := serialEngine(t).PartitionedRowsJoin(larger, lw, 0, smaller, sw, 0, radix.Opts{Bits: 5, Passes: []int{3, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != want.Len() || got.Width != want.Width {
		t.Fatalf("got %dx%d, want %dx%d", got.Len(), got.Width, want.Len(), want.Width)
	}
	gp, wp := join.RowsToPairs(got), join.RowsToPairs(want)
	for i := range wp {
		for k := range wp[i] {
			if gp[i][k] != wp[i][k] {
				t.Fatalf("row %d: got %v, want %v", i, gp[i], wp[i])
			}
		}
	}
}

func TestRowsErrors(t *testing.T) {
	if err := join.CheckRows([]int32{1, 2, 3}, 2, 0); err == nil {
		t.Fatal("ragged rows not rejected")
	}
	if err := join.CheckRows([]int32{1, 2}, 2, 5); err == nil {
		t.Fatal("bad key column not rejected")
	}
	if err := join.CheckRows([]int32{1, 2}, 0, 0); err == nil {
		t.Fatal("zero width not rejected")
	}
	if _, err := serialEngine(t).ClusterRows([]int32{1}, 2, 0, radix.Opts{Bits: 1}); err == nil {
		t.Fatal("ragged rows not rejected by the clustering")
	}
}

// A zero-width result (a query that projects nothing) carries its
// cardinality: Len is the match count, not len(Rows)/Width.
func TestRowsResultLenZeroWidth(t *testing.T) {
	if (&join.RowsResult{}).Len() != 0 {
		t.Fatal("the zero RowsResult must have length 0")
	}
	keys := []int32{3, 1, 2, 1}
	for name, run := range map[string]func() (*join.RowsResult, error){
		"hashRows": func() (*join.RowsResult, error) { return join.HashRowsRef(keys, 1, 0, keys[:3], 1, 0) },
		"partitionedRows": func() (*join.RowsResult, error) {
			return serialEngine(t).PartitionedRowsJoin(keys, 1, 0, keys[:3], 1, 0, radix.Opts{Bits: 1})
		},
	} {
		r, err := run()
		if err != nil {
			t.Fatal(err)
		}
		if r.Width != 0 || len(r.Rows) != 0 || r.Len() != 4 {
			t.Fatalf("%s of key-only tuples: width %d, %d values, Len %d — want 0, 0 and the 4 matches", name, r.Width, len(r.Rows), r.Len())
		}
	}
}
