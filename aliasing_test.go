package radixdecluster

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"radixdecluster/internal/bat"
	"radixdecluster/internal/workload"
)

// columnChecksums folds every column of the relations into one
// order-sensitive sum each.
func columnChecksums(t *testing.T, rels ...*Relation) map[string]uint64 {
	t.Helper()
	sums := map[string]uint64{}
	for _, r := range rels {
		for _, name := range r.ColumnNames() {
			col, err := r.Column(name)
			if err != nil {
				t.Fatal(err)
			}
			var s uint64
			for _, v := range col {
				s = s*1099511628211 + uint64(uint32(v))
			}
			sums[r.Name+"."+name] = s
		}
	}
	return sums
}

// imageChecksums folds every join image of the relations — key hashes
// and image-order columns — into one order-sensitive sum each.
func imageChecksums(rels ...*Relation) map[string]uint64 {
	sums := map[string]uint64{}
	for _, r := range rels {
		r.imgMu.Lock()
		for key, ki := range r.joinImgs {
			var s uint64
			for _, h := range ki.Hashes {
				s = s*1099511628211 + uint64(h)
			}
			sums[r.Name+"."+key+"/hashes"] = s
			for name, col := range ki.cols {
				s = 0
				for _, v := range col {
					s = s*1099511628211 + uint64(uint32(v))
				}
				sums[r.Name+"."+key+"/"+name] = s
			}
		}
		r.imgMu.Unlock()
	}
	return sums
}

// TestSharedColumnsStayReadOnly guards what queries share without
// copying: the process-wide dense-oid slab (every DSM side's oid
// column, every re-clustering's result positions) and the relations'
// base columns, which the clustering kernels read where they lie.
// Every strategy x engine x representation runs at once — under -race
// a write into shared memory is reported where it happens — each result
// must equal the strategy's raw serial run, and afterwards the slab
// must still read 0..n-1 and every input column and join image — key
// hashes and image-order columns, which a key-FK runtime query hands
// out as its larger result columns — must checksum as before. Every
// query runs twice and releases its result each time, so
// result buffers return to the arena — and are drawn again — while the
// other queries are still reading theirs: a buffer handed out twice
// shows as a race or a wrong column.
func TestSharedColumnsStayReadOnly(t *testing.T) {
	if testing.Short() {
		t.Skip("needs relations large enough for the parallel paths")
	}
	const pi = 2
	larger, smaller := compressedRelations(t,
		workload.Params{N: equivalenceN, Omega: pi + 1, HitRate: 1, SelLarger: 1, SelSmaller: 1, Seed: 61}, pi)
	before := columnChecksums(t, larger, smaller)
	// The join images exist before the matrix runs: one raw and one
	// compressed runtime query build every part of them it reads.
	for _, comp := range []Compression{CompressionOff, CompressionOn} {
		res, err := ProjectJoin(JoinQuery{
			Larger: larger, Smaller: smaller, LargerKey: "key", SmallerKey: "key",
			LargerProject: projNames(pi), SmallerProject: projNames(pi),
			Parallelism: 2, Compression: comp,
		})
		if err != nil {
			t.Fatal(err)
		}
		res.Release()
	}
	imagesBefore := imageChecksums(larger, smaller)
	if len(imagesBefore) == 0 {
		t.Fatal("the runtime queries built no join image: the test observes nothing")
	}

	var wg sync.WaitGroup
	for _, st := range []Strategy{DSMPostDecluster, DSMPre, NSMPreHash, NSMPrePhash, NSMPostDecluster, NSMPostJive} {
		q := JoinQuery{
			Larger: larger, Smaller: smaller,
			LargerKey: "key", SmallerKey: "key",
			LargerProject: projNames(pi), SmallerProject: projNames(pi),
			Strategy: st,
		}
		want, err := ProjectJoin(q)
		if err != nil {
			t.Fatalf("%v: raw serial: %v", st, err)
		}
		for _, par := range []int{0, 2} {
			for _, comp := range []Compression{CompressionOff, CompressionOn} {
				cq := q
				cq.Parallelism, cq.Compression = par, comp
				tag := fmt.Sprintf("%v/parallelism=%d/compression=%v", st, par, comp)
				wg.Add(1)
				go func() {
					defer wg.Done()
					for round := 0; round < 2; round++ {
						got, err := ProjectJoin(cq)
						if err != nil {
							t.Errorf("%s: %v", tag, err)
							return
						}
						if got.N != want.N || !slices.EqualFunc(got.Cols, want.Cols, slices.Equal[[]int32]) {
							t.Errorf("%s: result differs from the raw serial run", tag)
						}
						got.Release()
					}
				}()
			}
		}
	}
	wg.Wait()

	for i, o := range bat.Dense(larger.Len()) {
		if o != OID(i) {
			t.Fatalf("dense oid slab corrupted: position %d reads %d", i, o)
		}
	}
	for name, sum := range columnChecksums(t, larger, smaller) {
		if sum != before[name] {
			t.Errorf("input column %s was modified by a query", name)
		}
	}
	after := imageChecksums(larger, smaller)
	for name, sum := range imagesBefore {
		if after[name] != sum {
			t.Errorf("join image %s was modified by a query", name)
		}
	}
}
