package radixdecluster

import (
	"fmt"
	"reflect"
	"testing"

	"radixdecluster/internal/workload"
)

// Compressed/raw byte-equivalence matrix: every strategy must return
// results byte-identical to its raw run whether it executes serially,
// on the default runtime, or on an explicit one, and whether the
// compression mode forces the encoded representation or leaves the
// decision to the cost model. Strict equality, not set comparison —
// compressed operators reproduce the raw arrangement exactly.

// compressedRelations is workloadRelations with block-compressed
// column images enabled on both relations.
func compressedRelations(t *testing.T, p workload.Params, pi int) (*Relation, *Relation) {
	t.Helper()
	pr, err := workload.GenPair(p)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(name string, wr *workload.Relation) *Relation {
		cols := []Column{{Name: "key", Values: wr.Key()}}
		for j := 1; j <= pi; j++ {
			cols = append(cols, Column{Name: fmt.Sprintf("a%d", j), Values: wr.PayloadCol(j)})
		}
		rel, err := NewRelationOpts(name, cols, WithCompression())
		if err != nil {
			t.Fatal(err)
		}
		return rel
	}
	return mk("larger", pr.Larger), mk("smaller", pr.Smaller)
}

func requireSameResult(t *testing.T, tag string, got, want *Result) {
	t.Helper()
	if got.N != want.N {
		t.Fatalf("%s: N = %d, want %d", tag, got.N, want.N)
	}
	if !reflect.DeepEqual(got.Names, want.Names) {
		t.Fatalf("%s: names %v != %v", tag, got.Names, want.Names)
	}
	if !reflect.DeepEqual(got.Cols, want.Cols) {
		t.Fatalf("%s: result columns differ from raw serial run", tag)
	}
}

func TestCompressedEquivalenceMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("equivalence matrix needs full-size relations")
	}
	const pi = 2
	larger, smaller := compressedRelations(t,
		workload.Params{N: equivalenceN, Omega: pi + 1, HitRate: 1, SelLarger: 1, SelSmaller: 1, Seed: 46}, pi)
	rt := NewRuntime(RuntimeConfig{Workers: 4, MaxConcurrentQueries: 4})
	defer rt.Close()
	engines := []struct {
		name string
		par  int
		rt   *Runtime
	}{
		{"serial", 0, nil},
		{"parallel", 4, nil},
		{"runtime", 2, rt},
	}
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
		for _, eng := range engines {
			for _, mode := range []Compression{CompressionOn, CompressionAuto} {
				cq := q
				cq.Parallelism = eng.par
				cq.Runtime = eng.rt
				cq.Compression = mode
				got, err := ProjectJoin(cq)
				if err != nil {
					t.Fatalf("%v/%s/%v: %v", st, eng.name, mode, err)
				}
				requireSameResult(t, fmt.Sprintf("%v/%s/%v", st, eng.name, mode), got, want)
				if mode == CompressionOn && !got.Compressed {
					t.Fatalf("%v/%s: CompressionOn run not marked compressed", st, eng.name)
				}
				if got.Compressed && got.Timing.CompressedCols == 0 {
					t.Fatalf("%v/%s/%v: compressed run consumed no compressed columns", st, eng.name, mode)
				}
			}
		}
	}
}

// TestCompressedPlanAndCounters pins the observable surface: the Plan
// string advertises the representation, the Timing counters report the
// decode work, and relations without WithCompression always run raw
// even when the query asks for compression.
func TestCompressedPlanAndCounters(t *testing.T) {
	const pi = 1
	larger, smaller := compressedRelations(t,
		workload.Params{N: 4096, Omega: pi + 1, HitRate: 1, SelLarger: 1, SelSmaller: 1, Seed: 47}, pi)
	q := JoinQuery{
		Larger: larger, Smaller: smaller,
		LargerKey: "key", SmallerKey: "key",
		LargerProject: projNames(pi), SmallerProject: projNames(pi),
		Strategy:    DSMPostDecluster,
		Compression: CompressionOn,
	}
	res, err := ProjectJoin(q)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Compressed {
		t.Fatal("CompressionOn over WithCompression relations did not run compressed")
	}
	if res.Timing.CompressedCols == 0 || res.Timing.CompressedBytes <= 0 || res.Timing.CompressedSavedBytes <= 0 {
		t.Fatalf("compressed counters not populated: %+v", res.Timing)
	}
	if want := " compressed=true"; len(res.Plan) < len(want) || res.Plan[len(res.Plan)-len(want):] != want {
		t.Fatalf("Plan %q does not advertise compressed execution", res.Plan)
	}

	// Plain relations: the same query must silently run raw.
	rawL, rawS := workloadRelations(t,
		workload.Params{N: 4096, Omega: pi + 1, HitRate: 1, SelLarger: 1, SelSmaller: 1, Seed: 47}, pi)
	q.Larger, q.Smaller = rawL, rawS
	res, err = ProjectJoin(q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Compressed || res.Timing.CompressedCols != 0 {
		t.Fatalf("plain relations ran compressed: %+v", res.Timing)
	}
}
