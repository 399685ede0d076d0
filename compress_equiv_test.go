package radixdecluster

import (
	"fmt"
	"reflect"
	"testing"

	"radixdecluster/internal/workload"
)

// Compressed/raw byte-equivalence matrix: every strategy must return
// results byte-identical to its raw serial run whether it executes
// serially, on the default runtime, or on an explicit one, under
// CompressionOn (the raw plan over decoded values) and under
// CompressionAuto (which resolves to raw). Strict equality, not set
// comparison — a decode pass reproduces the raw arrays exactly.

// compressedRelations is workloadRelations with block-compressed
// column images enabled on both relations.
func compressedRelations(t *testing.T, p workload.Params, pi int) (*Relation, *Relation) {
	t.Helper()
	pr, err := workload.GenPair(p)
	if err != nil {
		t.Fatal(err)
	}
	return pairRelations(t, pr, pi, WithCompression())
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
	// The planner's pick for every strategy, and DSM post-projection with
	// each method pair forced: the clustered and sorted sides a
	// compressed plan decodes ahead of their fetch.
	type cell struct {
		st     Strategy
		lm, sm ProjMethod
	}
	var cells []cell
	for _, st := range []Strategy{DSMPostDecluster, DSMPre, NSMPreHash, NSMPrePhash, NSMPostDecluster, NSMPostJive} {
		cells = append(cells, cell{st: st})
	}
	for _, m := range [][2]ProjMethod{{UnsortedMethod, UnsortedMethod}, {ClusterMethod, UnsortedMethod},
		{SortedMethod, DeclusterMethod}, {ClusterMethod, DeclusterMethod}} {
		cells = append(cells, cell{DSMPostDecluster, m[0], m[1]})
	}
	for _, c := range cells {
		name := c.st.String()
		if c.lm != AutoMethod {
			name += fmt.Sprintf("/%c/%c", c.lm, c.sm)
		}
		q := JoinQuery{
			Larger: larger, Smaller: smaller,
			LargerKey: "key", SmallerKey: "key",
			LargerProject: projNames(pi), SmallerProject: projNames(pi),
			Strategy: c.st, LargerMethod: c.lm, SmallerMethod: c.sm,
		}
		want, err := ProjectJoin(q)
		if err != nil {
			t.Fatalf("%s: raw serial: %v", name, err)
		}
		for _, eng := range engines {
			for _, mode := range []Compression{CompressionOn, CompressionAuto} {
				cq := q
				cq.Parallelism = eng.par
				cq.Runtime = eng.rt
				cq.Compression = mode
				tag := fmt.Sprintf("%s/%s/%v", name, eng.name, mode)
				got, err := ProjectJoin(cq)
				if err != nil {
					t.Fatalf("%s: %v", tag, err)
				}
				requireSameResult(t, tag, got, want)
				if on := mode == CompressionOn; got.Compressed != on || (got.Timing.CompressedCols > 0) != on {
					t.Fatalf("%s: Compressed = %v with %d decoded inputs, want compressed = %v",
						tag, got.Compressed, got.Timing.CompressedCols, on)
				}
				got.Release()
			}
		}
		want.Release()
	}
}

// TestCompressionAutoRunsRaw: CompressionAuto resolves to raw execution,
// so an Auto query over fresh WithCompression relations — every
// strategy, serial and parallel — runs raw, decodes nothing, and never
// pays for building the relations' encodings.
func TestCompressionAutoRunsRaw(t *testing.T) {
	const pi = 1
	larger, smaller := compressedRelations(t,
		workload.Params{N: 20000, Omega: pi + 1, HitRate: 1, SelLarger: 1, SelSmaller: 1, Seed: 48}, pi)
	for _, st := range []Strategy{DSMPostDecluster, DSMPre, NSMPreHash, NSMPrePhash, NSMPostDecluster, NSMPostJive} {
		for _, par := range []int{0, 2} {
			q := JoinQuery{
				Larger: larger, Smaller: smaller,
				LargerKey: "key", SmallerKey: "key",
				LargerProject: projNames(pi), SmallerProject: projNames(pi),
				Strategy: st, Parallelism: par, Compression: CompressionAuto,
			}
			if _, err := PlanJoin(q); err != nil {
				t.Fatal(err)
			}
			res, err := ProjectJoin(q)
			if err != nil {
				t.Fatalf("%v/par=%d: %v", st, par, err)
			}
			if res.Compressed || res.Timing.CompressedCols != 0 {
				t.Fatalf("%v/par=%d: CompressionAuto ran compressed (%d decoded inputs)", st, par, res.Timing.CompressedCols)
			}
			res.Release()
		}
	}
	for _, r := range []*Relation{larger, smaller} {
		if r.colEnc != nil || r.recEnc != nil {
			t.Fatalf("%s: CompressionAuto queries built the relation's encodings", r.Name)
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
