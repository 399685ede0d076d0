package radixdecluster

import (
	"cmp"
	"fmt"
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"

	"radixdecluster/internal/workload"
)

// buildRelations makes a larger/smaller pair joined on "key" with two
// payload columns each; every key matches exactly once.
func buildRelations(t *testing.T, n int, seed uint64) (*Relation, *Relation) {
	t.Helper()
	rng := rand.New(rand.NewPCG(seed, 0))
	keys := make([]int32, n)
	for i := range keys {
		keys[i] = int32(i)
	}
	rng.Shuffle(n, func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	mk := func(name string, scale int32) *Relation {
		a := make([]int32, n)
		b := make([]int32, n)
		for i := range a {
			a[i] = keys[i] * scale
			b[i] = keys[i]*scale + 1
		}
		k := make([]int32, n)
		copy(k, keys)
		rel, err := NewRelation(name,
			Column{Name: "key", Values: k},
			Column{Name: "a1", Values: a},
			Column{Name: "a2", Values: b},
		)
		if err != nil {
			t.Fatal(err)
		}
		return rel
	}
	larger := mk("larger", 2)
	// Re-shuffle the smaller side's key order so the join is not
	// positional.
	rng.Shuffle(n, func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	smaller := mk("smaller", 5)
	return larger, smaller
}

func checkJoinResult(t *testing.T, res *Result, n int, tag string) {
	t.Helper()
	if res.N != n {
		t.Fatalf("%s: N = %d, want %d", tag, res.N, n)
	}
	la, err := res.Column("larger.a1")
	if err != nil {
		t.Fatal(err)
	}
	sa, err := res.Column("smaller.a1")
	if err != nil {
		t.Fatal(err)
	}
	sb, err := res.Column("smaller.a2")
	if err != nil {
		t.Fatal(err)
	}
	// Row i joined key k: larger.a1 = 2k, smaller.a1 = 5k,
	// smaller.a2 = 5k+1. Cross-check the invariants per row.
	for i := 0; i < res.N; i++ {
		k := la[i] / 2
		if sa[i] != 5*k || sb[i] != 5*k+1 {
			t.Fatalf("%s: row %d inconsistent: a1=%d sa=%d sb=%d", tag, i, la[i], sa[i], sb[i])
		}
	}
}

func TestProjectJoinAllStrategies(t *testing.T) {
	const n = 2000
	larger, smaller := buildRelations(t, n, 7)
	for _, st := range []Strategy{
		AutoStrategy, DSMPostDecluster, DSMPre,
		NSMPreHash, NSMPrePhash, NSMPostDecluster, NSMPostJive,
	} {
		res, err := ProjectJoin(JoinQuery{
			Larger: larger, Smaller: smaller,
			LargerKey: "key", SmallerKey: "key",
			LargerProject:  []string{"a1", "a2"},
			SmallerProject: []string{"a1", "a2"},
			Strategy:       st,
		})
		if err != nil {
			t.Fatalf("%v: %v", st, err)
		}
		checkJoinResult(t, res, n, st.String())
		if res.Timing.Total <= 0 {
			t.Fatalf("%v: no timing", st)
		}
		if res.Plan == "" {
			t.Fatalf("%v: no plan info", st)
		}
	}
}

// sortedRows returns the result's columns with the rows in
// lexicographic order. A strategy fixes its own row order (the join
// emits partition by partition, and the planned fan-out follows the
// tuple width), so results of different strategies compare as row
// multisets.
func sortedRows(res *Result) [][]int32 {
	idx := make([]int, res.N)
	for i := range idx {
		idx[i] = i
	}
	slices.SortFunc(idx, func(a, b int) int {
		for _, col := range res.Cols {
			if c := cmp.Compare(col[a], col[b]); c != 0 {
				return c
			}
		}
		return 0
	})
	out := make([][]int32, len(res.Cols))
	for c, col := range res.Cols {
		out[c] = make([]int32, res.N)
		for i, j := range idx {
			out[c][i] = col[j]
		}
	}
	return out
}

// TestProjectionShapes: the strategy changes wall-clock only, for every
// projection shape — an empty list on either or both sides (a zero-width
// row-major result still has a cardinality) and a repeated column. Each
// of the six strategies must return the N, names and rows of serial
// DSM post-projection, and on a 2-nominal lease, raw and compressed,
// the bytes of its own serial raw run.
func TestProjectionShapes(t *testing.T) {
	const n = 32 << 10 // twice exec.MinParallelN: the leases run parallel
	larger, smaller := compressedRelations(t,
		workload.Params{N: n, Omega: 3, HitRate: 1, SelLarger: 1, SelSmaller: 1, Seed: 17}, 2)
	sameShape := func(tag string, got, want *Result) bool {
		if got.N != want.N || len(got.Cols) != len(want.Cols) || !slices.Equal(got.Names, want.Names) {
			t.Errorf("%s: N=%d with %d columns %v, want N=%d with %d columns %v",
				tag, got.N, len(got.Cols), got.Names, want.N, len(want.Cols), want.Names)
			return false
		}
		return true
	}
	for _, shape := range []struct {
		name   string
		lp, sp []string
	}{
		{"both empty", []string{}, []string{}},
		{"larger only", []string{"a1", "a2"}, []string{}},
		{"smaller only", []string{}, []string{"a2"}},
		{"repeated column", []string{"a1", "a1"}, []string{"a2", "a1", "a2"}},
	} {
		q := JoinQuery{
			Larger: larger, Smaller: smaller, LargerKey: "key", SmallerKey: "key",
			LargerProject: shape.lp, SmallerProject: shape.sp, Strategy: DSMPostDecluster,
		}
		ref, err := ProjectJoin(q)
		if err != nil {
			t.Fatalf("%s: serial DSM-post-decluster: %v", shape.name, err)
		}
		if ref.N != n || len(ref.Cols) != len(shape.lp)+len(shape.sp) {
			t.Fatalf("%s: reference has N=%d and %d columns", shape.name, ref.N, len(ref.Cols))
		}
		refRows := sortedRows(ref)
		for _, st := range []Strategy{DSMPostDecluster, DSMPre, NSMPreHash, NSMPrePhash, NSMPostDecluster, NSMPostJive} {
			var own *Result // the strategy's serial raw run
			for _, par := range []int{0, 2} {
				for _, comp := range []Compression{CompressionOff, CompressionOn} {
					tag := fmt.Sprintf("%s/%v/par=%d/%v", shape.name, st, par, comp)
					q.Strategy, q.Parallelism, q.Compression = st, par, comp
					got, err := ProjectJoin(q)
					if err != nil {
						t.Errorf("%s: %v", tag, err)
						continue
					}
					if !sameShape(tag, got, ref) {
						continue
					}
					if own == nil {
						own = got
						for c, col := range sortedRows(got) {
							if !slices.Equal(col, refRows[c]) {
								t.Errorf("%s: column %s differs from serial DSM-post-decluster", tag, ref.Names[c])
							}
						}
						continue
					}
					for c := range own.Cols {
						if !slices.Equal(got.Cols[c], own.Cols[c]) {
							t.Errorf("%s: column %s differs from the strategy's serial raw run", tag, ref.Names[c])
						}
					}
					got.Release()
				}
			}
		}
	}
}

func TestProjectJoinExplicitMethods(t *testing.T) {
	larger, smaller := buildRelations(t, 1500, 9)
	res, err := ProjectJoin(JoinQuery{
		Larger: larger, Smaller: smaller,
		LargerKey: "key", SmallerKey: "key",
		LargerProject:  []string{"a1"},
		SmallerProject: []string{"a2"},
		Strategy:       DSMPostDecluster,
		LargerMethod:   ClusterMethod,
		SmallerMethod:  DeclusterMethod,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.N != 1500 {
		t.Fatalf("N = %d", res.N)
	}
	la, _ := res.Column("larger.a1")
	sb, _ := res.Column("smaller.a2")
	for i := range la {
		if sb[i] != la[i]/2*5+1 {
			t.Fatalf("row %d: a1=%d a2=%d", i, la[i], sb[i])
		}
	}
}

func TestProjectJoinErrors(t *testing.T) {
	larger, smaller := buildRelations(t, 10, 1)
	if _, err := ProjectJoin(JoinQuery{Larger: larger}); err == nil {
		t.Fatal("missing smaller not rejected")
	}
	q := JoinQuery{
		Larger: larger, Smaller: smaller,
		LargerKey: "nope", SmallerKey: "key",
	}
	if _, err := ProjectJoin(q); err == nil {
		t.Fatal("bad key column not rejected")
	}
	q.LargerKey, q.LargerProject = "key", []string{"zz"}
	if _, err := ProjectJoin(q); err == nil {
		t.Fatal("bad projection column not rejected")
	}
}

func TestRelationAccessors(t *testing.T) {
	r, err := NewRelation("t", Column{Name: "x", Values: []int32{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 2 || r.Width() != 1 {
		t.Fatalf("Len=%d Width=%d", r.Len(), r.Width())
	}
	if names := r.ColumnNames(); len(names) != 1 || names[0] != "x" {
		t.Fatalf("names = %v", names)
	}
	if _, err := r.Column("y"); err == nil {
		t.Fatal("missing column not rejected")
	}
	if _, err := NewRelation("bad",
		Column{Name: "a", Values: []int32{1}},
		Column{Name: "b", Values: []int32{1, 2}}); err == nil {
		t.Fatal("ragged relation not rejected")
	}
}

func TestLowLevelOperators(t *testing.T) {
	n := 4096
	rng := rand.New(rand.NewPCG(3, 3))
	oids := make([]OID, n)
	for i := range oids {
		oids[i] = OID(rng.IntN(n))
	}
	h := Pentium4()
	bits, ignore := PlanClusterBits(h, n, 4)
	if bits < 0 || ignore < 0 {
		t.Fatalf("bits=%d ignore=%d", bits, ignore)
	}
	cl, err := ClusterOIDs(oids, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	col := make([]int32, n)
	for i := range col {
		col[i] = int32(i) * 3
	}
	fetched, err := Fetch(col, cl.OIDs)
	if err != nil {
		t.Fatal(err)
	}
	window := PlanWindowTuples(h, 4)
	out, err := Decluster(fetched, cl.ResultPos, cl.Clusters, window)
	if err != nil {
		t.Fatal(err)
	}
	// out[pos] must equal col[oids[pos]]: the projection in the
	// original join-index order.
	for pos, o := range oids {
		if out[pos] != int32(o)*3 {
			t.Fatalf("out[%d] = %d, want %d", pos, out[pos], int32(o)*3)
		}
	}
	if _, err := Fetch(col, []OID{OID(n)}); err == nil {
		t.Fatal("out-of-range fetch not rejected")
	}
}

func TestSortOIDs(t *testing.T) {
	oids := []OID{3, 1, 2, 0}
	payload := []OID{30, 10, 20, 0}
	s, p, err := SortOIDs(oids, payload, Pentium4())
	if err != nil {
		t.Fatal(err)
	}
	for i := range s {
		if s[i] != OID(i) || p[i] != OID(i)*10 {
			t.Fatalf("sorted: %v %v", s, p)
		}
	}
}

func TestDeclusterStrings(t *testing.T) {
	n := 500
	rng := rand.New(rand.NewPCG(8, 8))
	oids := make([]OID, n)
	for i := range oids {
		oids[i] = OID(rng.IntN(n))
	}
	cl, err := ClusterOIDs(oids, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	vals := make([]string, n)
	for i, pos := range cl.ResultPos {
		vals[i] = "s" + string(rune('a'+int(pos)%26))
	}
	pc, err := DeclusterStrings(vals, cl.ResultPos, cl.Clusters, 64, 1024)
	if err != nil {
		t.Fatal(err)
	}
	if pc.Len() != n || pc.Pages() < 1 {
		t.Fatalf("Len=%d Pages=%d", pc.Len(), pc.Pages())
	}
	for i := 0; i < n; i += 31 {
		got, err := pc.At(i)
		if err != nil {
			t.Fatal(err)
		}
		want := "s" + string(rune('a'+i%26))
		if got != want {
			t.Fatalf("At(%d) = %q, want %q", i, got, want)
		}
	}
}

func TestPlanJoin(t *testing.T) {
	larger, smaller := buildRelations(t, 4000, 2)
	p, err := PlanJoin(JoinQuery{
		Larger: larger, Smaller: smaller,
		LargerKey: "key", SmallerKey: "key",
		LargerProject: []string{"a1"}, SmallerProject: []string{"a1"},
		SmallerMethod: DeclusterMethod,
	})
	if err != nil {
		t.Fatal(err)
	}
	if p.WindowTuples != 64<<10 {
		t.Fatalf("WindowTuples = %d", p.WindowTuples)
	}
	if p.ModeledMs <= 0 {
		t.Fatalf("ModeledMs = %g", p.ModeledMs)
	}
	if p.ScalabilityLimit != 512*1024*1024 {
		t.Fatalf("ScalabilityLimit = %d", p.ScalabilityLimit)
	}
	if _, err := PlanJoin(JoinQuery{}); err == nil {
		t.Fatal("empty query not rejected")
	}
}

func TestCalibratePublic(t *testing.T) {
	h, err := Calibrate(Pentium4())
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(h.Levels) < 2 {
		t.Fatalf("calibrated %d levels", len(h.Levels))
	}
}

func TestHierarchyRoundTrip(t *testing.T) {
	h := Pentium4()
	if err := h.Validate(); err != nil {
		t.Fatal(err)
	}
	if h.Levels[0].SizeBytes != 16<<10 || !h.Levels[2].TLB {
		t.Fatalf("unexpected hierarchy: %+v", h)
	}
	var zero Hierarchy
	if err := zero.Validate(); err != nil {
		t.Fatal("zero hierarchy must default to Pentium4")
	}
	// The levels travel through the internal form, with or without
	// being spelled out.
	for _, h := range []Hierarchy{zero, {Levels: Pentium4().Levels}} {
		in := h.internal()
		if len(in.Levels) != 3 || !reflect.DeepEqual(fromInternal(in).Levels, Pentium4().Levels) {
			t.Fatalf("%+v: internal form %+v lost the levels", h, in)
		}
		if got := h.String(); got != "L1=16KiB/32B L2=512KiB/128B TLB=256KiB/4096B" {
			t.Fatalf("String() = %q", got)
		}
	}
}
