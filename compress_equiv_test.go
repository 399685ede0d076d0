package radixdecluster

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"radixdecluster/internal/workload"
)

// Compressed/raw byte-equivalence matrix: every strategy must return
// results byte-identical to its raw serial run whether it executes
// serially, on the default runtime, or on an explicit one, under
// CompressionOn (compressed where a runtime u/u DSM post-projection
// fetches from join images, raw everywhere else) and under
// CompressionAuto (which resolves to raw). Strict equality, not set
// comparison — a decode reproduces the raw arrays exactly.

// compressedRelations is workloadRelations with block-compressed
// column images enabled on both relations.
func compressedRelations(t testing.TB, p workload.Params, pi int) (*Relation, *Relation) {
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
	// each method pair forced: only u/u on a runtime joins over join
	// images, so only it (and the Auto pick there) runs compressed.
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
			images := eng.par != 0 && c.st == DSMPostDecluster &&
				(c.lm == AutoMethod || c.lm == UnsortedMethod && c.sm == UnsortedMethod)
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
				if on := mode == CompressionOn && images; got.Compressed != on || (got.Timing.CompressedCols > 0) != on {
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
// pays for building an encoding: the relations' JoinImageBytes end where
// the same queries under CompressionOff leave them.
func TestCompressionAutoRunsRaw(t *testing.T) {
	const pi = 1
	var imageBytes [2][2]int64
	for m, mode := range []Compression{CompressionOff, CompressionAuto} {
		larger, smaller := compressedRelations(t,
			workload.Params{N: 20000, Omega: pi + 1, HitRate: 1, SelLarger: 1, SelSmaller: 1, Seed: 48}, pi)
		for _, st := range []Strategy{DSMPostDecluster, DSMPre, NSMPreHash, NSMPrePhash, NSMPostDecluster, NSMPostJive} {
			for _, par := range []int{0, 2} {
				q := JoinQuery{
					Larger: larger, Smaller: smaller,
					LargerKey: "key", SmallerKey: "key",
					LargerProject: projNames(pi), SmallerProject: projNames(pi),
					Strategy: st, Parallelism: par, Compression: mode,
				}
				if _, err := PlanJoin(q); err != nil {
					t.Fatal(err)
				}
				res, err := ProjectJoin(q)
				if err != nil {
					t.Fatalf("%v/%v/par=%d: %v", mode, st, par, err)
				}
				if res.Compressed || res.Timing.CompressedCols != 0 {
					t.Fatalf("%v/%v/par=%d: ran compressed (%d decoded inputs)", mode, st, par, res.Timing.CompressedCols)
				}
				res.Release()
			}
		}
		imageBytes[m] = [2]int64{larger.JoinImageBytes(), smaller.JoinImageBytes()}
	}
	if imageBytes[1] != imageBytes[0] {
		t.Fatalf("CompressionAuto left JoinImageBytes at %v, CompressionOff at %v", imageBytes[1], imageBytes[0])
	}
}

// TestCompressedPlanAndCounters pins the observable surface of a
// runtime query, which joins over join images: the Plan string
// advertises the representation, the Timing counters report the decode
// work, and relations without WithCompression always run raw even when
// the query asks for compression.
func TestCompressedPlanAndCounters(t *testing.T) {
	const pi = 1
	larger, smaller := compressedRelations(t,
		workload.Params{N: 4096, Omega: pi + 1, HitRate: 1, SelLarger: 1, SelSmaller: 1, Seed: 47}, pi)
	q := JoinQuery{
		Larger: larger, Smaller: smaller,
		LargerKey: "key", SmallerKey: "key",
		LargerProject: projNames(pi), SmallerProject: projNames(pi),
		Strategy:    DSMPostDecluster,
		Parallelism: AutoParallelism,
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

// TestCompressionOnlyOverJoinImages pins where CompressionOn acts: only a
// runtime u/u DSM post-projection, whose fetches decode the relations'
// join images partition by partition, runs compressed. Every strategy in
// paper mode, every other strategy on the runtime and every forced
// non-u/u DSM post-projection on the runtime runs raw over
// WithCompression relations: Compressed false, every Compressed* counter
// and DecodeTime zero, no decompress-* step or phase, and PlanJoin then
// ProjectJoin leave JoinImageBytes where the raw query leaves it — the
// relations hold no encoding outside their join images. Every result is
// the raw serial run's, byte for byte.
func TestCompressionOnlyOverJoinImages(t *testing.T) {
	const pi = 2
	p := workload.Params{N: 40000, Omega: pi + 1, HitRate: 1, SelLarger: 1, SelSmaller: 1, Seed: 49}
	rt := NewRuntime(RuntimeConfig{Workers: 2})
	defer rt.Close()
	type cell struct {
		st     Strategy
		lm, sm ProjMethod
		par    int
	}
	var cells []cell
	for _, st := range []Strategy{DSMPostDecluster, DSMPre, NSMPreHash, NSMPrePhash, NSMPostDecluster, NSMPostJive} {
		cells = append(cells, cell{st: st}, cell{st: st, par: 2})
	}
	for _, m := range [][2]ProjMethod{{ClusterMethod, UnsortedMethod}, {UnsortedMethod, DeclusterMethod},
		{SortedMethod, DeclusterMethod}, {ClusterMethod, DeclusterMethod}, {UnsortedMethod, UnsortedMethod}} {
		cells = append(cells, cell{DSMPostDecluster, m[0], m[1], 0}, cell{DSMPostDecluster, m[0], m[1], 2})
	}
	for _, c := range cells {
		tag := fmt.Sprintf("%v/par=%d", c.st, c.par)
		if c.lm != AutoMethod {
			tag += fmt.Sprintf("/%c/%c", c.lm, c.sm)
		}
		images := c.par != 0 && c.st == DSMPostDecluster &&
			(c.lm == AutoMethod || c.lm == UnsortedMethod && c.sm == UnsortedMethod)
		larger, smaller := compressedRelations(t, p, pi)
		ref := JoinQuery{
			Larger: larger, Smaller: smaller, LargerKey: "key", SmallerKey: "key",
			LargerProject: projNames(pi), SmallerProject: projNames(pi),
			Strategy: c.st, LargerMethod: c.lm, SmallerMethod: c.sm,
		}
		if images {
			ref.LargerMethod, ref.SmallerMethod = UnsortedMethod, UnsortedMethod
		}
		want, err := ProjectJoin(ref)
		if err != nil {
			t.Fatalf("%s: raw serial: %v", tag, err)
		}
		// run plans and runs the cell on fresh relations and returns the
		// result and the join image bytes the relations hold after it.
		run := func(mode Compression) (*Result, [2]int64) {
			t.Helper()
			l, s := compressedRelations(t, p, pi)
			q := ref
			q.Larger, q.Smaller = l, s
			q.LargerMethod, q.SmallerMethod = c.lm, c.sm
			q.Parallelism, q.Compression, q.Trace = c.par, mode, true
			if c.par != 0 {
				q.Runtime = rt
			}
			if _, err := PlanJoin(q); err != nil {
				t.Fatalf("%s: PlanJoin: %v", tag, err)
			}
			res, err := ProjectJoin(q)
			if err != nil {
				t.Fatalf("%s: %v", tag, err)
			}
			requireSameResult(t, fmt.Sprintf("%s/%v", tag, mode), res, want)
			return res, [2]int64{l.JoinImageBytes(), s.JoinImageBytes()}
		}
		raw, rawBytes := run(CompressionOff)
		raw.Release()
		got, gotBytes := run(CompressionOn)
		tm := got.Timing
		if images {
			if !got.Compressed || tm.CompressedCols == 0 {
				t.Errorf("%s: runtime u/u ran Compressed = %v with %d decoded columns, want compressed", tag, got.Compressed, tm.CompressedCols)
			}
		} else {
			if got.Compressed || tm.CompressedCols != 0 || tm.CompressedBytes != 0 ||
				tm.CompressedSavedBytes != 0 || tm.DecodeTime != 0 {
				t.Errorf("%s: ran compressed: Compressed = %v, %s", tag, got.Compressed, tm)
			}
			for _, ev := range got.Trace.t.Events() {
				if strings.HasPrefix(ev.Name, "decompress-") {
					t.Errorf("%s: lists %q", tag, ev.Name)
				}
			}
			if gotBytes != rawBytes {
				t.Errorf("%s: JoinImageBytes %v, the raw query leaves %v", tag, gotBytes, rawBytes)
			}
		}
		got.Release()
		want.Release()
	}
}
