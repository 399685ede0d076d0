package strategy

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"radixdecluster/internal/exec"
	"radixdecluster/internal/mem"
	"radixdecluster/internal/obs"
	"radixdecluster/internal/radix"
	"radixdecluster/internal/workload"
)

// dsmSides converts a generated pair into DSM strategy inputs with pi
// projection columns per side.
func dsmSides(pr *workload.Pair, pi int) (DSMSide, DSMSide) {
	l := DSMSide{
		OIDs:  pr.Larger.SelOIDs,
		Keys:  pr.Larger.SelKeys,
		Cols:  pr.Larger.ProjCols(pi),
		BaseN: pr.Larger.BaseN,
	}
	s := DSMSide{
		OIDs:  pr.Smaller.SelOIDs,
		Keys:  pr.Smaller.SelKeys,
		Cols:  pr.Smaller.ProjCols(pi),
		BaseN: pr.Smaller.BaseN,
	}
	return l, s
}

func nsmSides(pr *workload.Pair, pi int) (NSMSide, NSMSide) {
	cols := make([]int, pi)
	for i := range cols {
		cols[i] = i + 1
	}
	return NSMSide{Rel: pr.Larger.NSM(), KeyCol: 0, ProjCols: cols},
		NSMSide{Rel: pr.Smaller.NSM(), KeyCol: 0, ProjCols: cols}
}

// expectedRows builds the reference multiset of result rows
// [largerPayloads... , smallerPayloads...] from a nested-loop join.
func expectedRows(pr *workload.Pair, pi int) map[string]int {
	byKey := map[int32][]workload.OID{}
	for i, k := range pr.Smaller.SelKeys {
		byKey[k] = append(byKey[k], pr.Smaller.SelOIDs[i])
	}
	out := map[string]int{}
	row := make([]int32, 2*pi)
	for i, k := range pr.Larger.SelKeys {
		lo := pr.Larger.SelOIDs[i]
		for _, so := range byKey[k] {
			for j := 0; j < pi; j++ {
				row[j] = workload.PayloadValue(lo, j+1)
				row[pi+j] = workload.PayloadValue(so, j+1)
			}
			out[fmt.Sprint(row)]++
		}
	}
	return out
}

func dsmResultRows(t *testing.T, res *Result, pi int) map[string]int {
	t.Helper()
	if len(res.LargerCols) != pi || len(res.SmallerCols) != pi {
		t.Fatalf("result has %d/%d columns, want %d/%d", len(res.LargerCols), len(res.SmallerCols), pi, pi)
	}
	out := map[string]int{}
	row := make([]int32, 2*pi)
	for i := 0; i < res.N; i++ {
		for j := 0; j < pi; j++ {
			row[j] = res.LargerCols[j][i]
			row[pi+j] = res.SmallerCols[j][i]
		}
		out[fmt.Sprint(row)]++
	}
	return out
}

func rowsResultRows(t *testing.T, res *Result, pi int) map[string]int {
	t.Helper()
	if res.RowWidth != 2*pi {
		t.Fatalf("result width %d, want %d", res.RowWidth, 2*pi)
	}
	out := map[string]int{}
	for i := 0; i < res.N; i++ {
		out[fmt.Sprint(res.Rows[i*res.RowWidth:(i+1)*res.RowWidth])]++
	}
	return out
}

func compareRows(t *testing.T, tag string, got, want map[string]int) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d distinct rows, want %d", tag, len(got), len(want))
	}
	for r, c := range want {
		if got[r] != c {
			t.Fatalf("%s: row %s appears %d times, want %d", tag, r, got[r], c)
		}
	}
}

func testPair(t *testing.T, p workload.Params) *workload.Pair {
	t.Helper()
	pr, err := workload.GenPair(p)
	if err != nil {
		t.Fatal(err)
	}
	return pr
}

// Every strategy and method combination must compute the same join.
func TestAllStrategiesAgree(t *testing.T) {
	const pi = 2
	pr := testPair(t, workload.Params{N: 1500, Omega: pi + 1, HitRate: 1, SelLarger: 1, SelSmaller: 1, Seed: 11})
	want := expectedRows(pr, pi)
	cfg := Config{Hier: mem.Small()}
	l, s := dsmSides(pr, pi)
	for _, lm := range []ProjMethod{Unsorted, SortedM, PartialCluster} {
		for _, sm := range []ProjMethod{Unsorted, Declustered} {
			res, err := DSMPost(l, s, lm, sm, cfg)
			if err != nil {
				t.Fatalf("DSMPost %c/%c: %v", lm, sm, err)
			}
			if res.N != pr.ExpectedMatches {
				t.Fatalf("DSMPost %c/%c: N=%d want %d", lm, sm, res.N, pr.ExpectedMatches)
			}
			compareRows(t, fmt.Sprintf("DSMPost %c/%c", lm, sm), dsmResultRows(t, res, pi), want)
		}
	}
	if res, err := DSMPre(l, s, cfg); err != nil {
		t.Fatalf("DSMPre: %v", err)
	} else {
		compareRows(t, "DSMPre", rowsResultRows(t, res, pi), want)
	}
	nl, ns := nsmSides(pr, pi)
	if res, err := NSMPre(nl, ns, false, cfg); err != nil {
		t.Fatalf("NSMPre naive: %v", err)
	} else {
		compareRows(t, "NSM-pre-hash", rowsResultRows(t, res, pi), want)
	}
	if res, err := NSMPre(nl, ns, true, cfg); err != nil {
		t.Fatalf("NSMPre partitioned: %v", err)
	} else {
		compareRows(t, "NSM-pre-phash", rowsResultRows(t, res, pi), want)
	}
	if res, err := NSMPostDecluster(nl, ns, cfg); err != nil {
		t.Fatalf("NSMPostDecluster: %v", err)
	} else {
		compareRows(t, "NSM-post-decluster", rowsResultRows(t, res, pi), want)
	}
	if res, err := NSMPostJive(nl, ns, 0, cfg); err != nil {
		t.Fatalf("NSMPostJive: %v", err)
	} else {
		compareRows(t, "NSM-post-jive", rowsResultRows(t, res, pi), want)
	}
}

func TestStrategiesAgreeAcrossHitRates(t *testing.T) {
	const pi = 1
	for _, h := range []float64{3, 1, 0.3} {
		pr := testPair(t, workload.Params{N: 900, Omega: 2, HitRate: h, SelLarger: 1, SelSmaller: 1, Seed: 21})
		want := expectedRows(pr, pi)
		cfg := Config{Hier: mem.Small()}
		l, s := dsmSides(pr, pi)
		res, err := DSMPost(l, s, PartialCluster, Declustered, cfg)
		if err != nil {
			t.Fatalf("h=%g: %v", h, err)
		}
		compareRows(t, fmt.Sprintf("h=%g", h), dsmResultRows(t, res, pi), want)
		nl, ns := nsmSides(pr, pi)
		res2, err := NSMPostJive(nl, ns, 2, cfg)
		if err != nil {
			t.Fatalf("h=%g jive: %v", h, err)
		}
		compareRows(t, fmt.Sprintf("h=%g jive", h), rowsResultRows(t, res2, pi), want)
	}
}

// Sparse projections: one relation is a 10% selection; the DSM
// strategies must fetch through sparse base oids correctly.
func TestDSMPostSparseSelection(t *testing.T) {
	const pi = 2
	pr := testPair(t, workload.Params{N: 800, Omega: pi + 1, HitRate: 1, SelLarger: 0.1, SelSmaller: 1, Seed: 31})
	want := expectedRows(pr, pi)
	l, s := dsmSides(pr, pi)
	for _, sm := range []ProjMethod{Unsorted, Declustered} {
		res, err := DSMPost(l, s, PartialCluster, sm, Config{Hier: mem.Small()})
		if err != nil {
			t.Fatalf("sm=%c: %v", sm, err)
		}
		compareRows(t, fmt.Sprintf("sparse sm=%c", sm), dsmResultRows(t, res, pi), want)
	}
	// Selection on the smaller side too.
	pr2 := testPair(t, workload.Params{N: 500, Omega: pi + 1, HitRate: 1, SelLarger: 1, SelSmaller: 0.25, Seed: 32})
	l2, s2 := dsmSides(pr2, pi)
	res, err := DSMPost(l2, s2, SortedM, Declustered, Config{Hier: mem.Small()})
	if err != nil {
		t.Fatal(err)
	}
	compareRows(t, "sparse smaller", dsmResultRows(t, res, pi), expectedRows(pr2, pi))
}

// TestDSMPostJoinImages: a u/u join over the sides' join images —
// selected sides included, projected from the images through image
// positions — returns the bytes of the serial run that clusters per
// query, on the serial engine and on a runtime; any other method pair
// handed the same images clusters per query, as paper mode does, and
// builds none. An image for other bits is an error, not a wrong join.
func TestDSMPostJoinImages(t *testing.T) {
	const pi = 2
	pr := testPair(t, workload.Params{N: 30000, Omega: pi + 1, HitRate: 1, SelLarger: 0.5, SelSmaller: 1, Seed: 33})
	l, s := dsmSides(pr, pi)
	li, si := l, s
	withJoinImages(nil, &li, &si)
	for _, m := range [][2]ProjMethod{{PartialCluster, Declustered}, {Unsorted, Unsorted}, {Unsorted, Declustered}, {SortedM, Unsorted}} {
		want, err := DSMPost(l, s, m[0], m[1], Config{})
		if err != nil {
			t.Fatal(err)
		}
		builds := 0
		if m == [2]ProjMethod{Unsorted, Unsorted} {
			builds = 2
		}
		for _, par := range []int{0, 1, 2} {
			tr := obs.NewTrace("images")
			got, err := DSMPost(li, si, m[0], m[1], Config{Parallelism: par, Trace: tr})
			if err != nil {
				t.Fatalf("%c/%c par=%d: %v", m[0], m[1], par, err)
			}
			same := slices.Equal[[]int32]
			if !slices.EqualFunc(got.LargerCols, want.LargerCols, same) || !slices.EqualFunc(got.SmallerCols, want.SmallerCols, same) {
				t.Fatalf("%c/%c par=%d: the join over join images differs from the serial per-query clustering", m[0], m[1], par)
			}
			if n := stepCount(tr, "build-join-image"); n != builds {
				t.Errorf("%c/%c par=%d: %d build-join-image steps, want %d", m[0], m[1], par, n, builds)
			}
			got.Release()
		}
	}
	si.JoinImage = func(o radix.Opts, _ bool, e *exec.Engine) (Image, error) {
		o.Bits++
		return clusterImage(e, s.OIDs, s.Keys, s.Cols, o)
	}
	if _, err := DSMPost(li, si, Unsorted, Unsorted, Config{Parallelism: 2}); err == nil {
		t.Fatal("a join image clustered on other bits was accepted")
	}
}

func TestDSMPostAutoPlanner(t *testing.T) {
	const pi = 1
	// Small relations against the real Pentium4 hierarchy: everything
	// fits the 512KB cache, planner must pick u/u.
	pr := testPair(t, workload.Params{N: 6000, Omega: 2, HitRate: 1, SelLarger: 1, SelSmaller: 1, Seed: 41})
	l, s := dsmSides(pr, pi)
	res, err := DSMPost(l, s, Auto, Auto, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.LargerMethod != Unsorted || res.SmallerMethod != Unsorted {
		t.Fatalf("small-N planner chose %c/%c, want u/u", res.LargerMethod, res.SmallerMethod)
	}
	// Same relations against the tiny hierarchy: columns exceed the
	// 8KB LLC, planner must pick c/d.
	res, err = DSMPost(l, s, Auto, Auto, Config{Hier: mem.Small()})
	if err != nil {
		t.Fatal(err)
	}
	if res.LargerMethod != PartialCluster || res.SmallerMethod != Declustered {
		t.Fatalf("large-N planner chose %c/%c, want c/d", res.LargerMethod, res.SmallerMethod)
	}
	compareRows(t, "auto", dsmResultRows(t, res, pi), expectedRows(pr, pi))
}

// TestJoinImagesPlanUnsorted: on one hierarchy, the same sides plan c/d
// without join images (the §4.1 rule on the declared levels, columns
// beyond the 8 KB LLC) and u/u with them, at the same join bits; under
// Compress only the plan over images is compressed. A forced method is
// kept either way, with the bits and the raw representation it has
// without images.
func TestJoinImagesPlanUnsorted(t *testing.T) {
	const pi = 1
	pr := testPair(t, workload.Params{N: 6000, Omega: 2, HitRate: 1, SelLarger: 1, SelSmaller: 1, Seed: 41})
	l, s := dsmSides(pr, pi)
	plan := func(l, s DSMSide, lm, sm ProjMethod, cfg Config) Plan {
		t.Helper()
		p, _, err := PlanDSMPost(l, s, lm, sm, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	for _, comp := range []bool{false, true} {
		li, si := l, s
		withJoinImages(nil, &li, &si)
		cfg := Config{Hier: mem.Small(), Compress: comp}
		base := plan(l, s, Auto, Auto, cfg)
		if base.Methods() != "c/d" || base.Compressed {
			t.Fatalf("compress=%v: plan without images is %v, want c/d, raw", comp, base)
		}
		want := Plan{LargerMethod: Unsorted, SmallerMethod: Unsorted, JoinBits: base.JoinBits, Compressed: comp}
		if got := plan(li, si, Auto, Auto, cfg); got != want {
			t.Errorf("compress=%v: plan with images = %v, want %v", comp, got, want)
		}
		if got := plan(li, si, PartialCluster, Declustered, cfg); got != base {
			t.Errorf("compress=%v: forced c/d with images = %v, want %v", comp, got, base)
		}
		if got, want := plan(li, si, PartialCluster, Auto, cfg), plan(l, s, PartialCluster, Unsorted, cfg); got != want {
			t.Errorf("compress=%v: forced c, auto smaller with images = %v, want %v", comp, got, want)
		}
		res, err := DSMPost(li, si, Auto, Auto, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Plan != want {
			t.Errorf("compress=%v: run over images executed %v, want %v", comp, res.Plan, want)
		}
		compareRows(t, fmt.Sprintf("compress=%v images u/u", comp), dsmResultRows(t, res, pi), expectedRows(pr, pi))
	}
}

// TestOneJoinImagePlansLikeNone: the u/u rule needs images on both
// sides. With an image on one side only, Auto plans what it plans with
// none (c/d on the 8 KB LLC), and the run executes that plan without
// asking the one side for its image.
func TestOneJoinImagePlansLikeNone(t *testing.T) {
	const pi = 1
	pr := testPair(t, workload.Params{N: 6000, Omega: 2, HitRate: 1, SelLarger: 1, SelSmaller: 1, Seed: 43})
	l, s := dsmSides(pr, pi)
	cfg := Config{Hier: mem.Small()}
	base, _, err := PlanDSMPost(l, s, Auto, Auto, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if base.Methods() != "c/d" {
		t.Fatalf("plan without images is %v, want c/d", base)
	}
	for _, side := range []string{"larger", "smaller"} {
		li, si := l, s
		imaged := &li
		if side == "smaller" {
			imaged = &si
		}
		withJoinImages(nil, imaged)
		built, img := 0, imaged.JoinImage
		imaged.JoinImage = func(o radix.Opts, compressed bool, e *exec.Engine) (Image, error) {
			built++
			return img(o, compressed, e)
		}
		got, _, err := PlanDSMPost(li, si, Auto, Auto, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got != base {
			t.Errorf("image on the %s side only: plan = %v, want %v", side, got, base)
		}
		res, err := DSMPost(li, si, Auto, Auto, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Plan != base {
			t.Errorf("image on the %s side only: run executed %v, want %v", side, res.Plan, base)
		}
		if built != 0 {
			t.Errorf("image on the %s side only: the run asked for it %d times", side, built)
		}
		compareRows(t, side+" image only", dsmResultRows(t, res, pi), expectedRows(pr, pi))
	}
}

func TestDSMPostAutoPicksSortForManyColumns(t *testing.T) {
	pi := 20
	// 6000*4B columns exceed mem.Small's 8KB LLC, so reordering pays;
	// with π > 16 the planner must prefer the full sort.
	pr := testPair(t, workload.Params{N: 6000, Omega: pi + 1, HitRate: 1, SelLarger: 1, SelSmaller: 1, Seed: 43})
	l, s := dsmSides(pr, pi)
	res, err := DSMPost(l, s, Auto, Auto, Config{Hier: mem.Small()})
	if err != nil {
		t.Fatal(err)
	}
	if res.LargerMethod != SortedM {
		t.Fatalf("π=%d planner chose %c, want s", pi, res.LargerMethod)
	}
	compareRows(t, "auto-s", dsmResultRows(t, res, pi), expectedRows(pr, pi))
}

func TestDSMPostRejectsBadMethods(t *testing.T) {
	pr := testPair(t, workload.Params{N: 50, Omega: 2, HitRate: 1, SelLarger: 1, SelSmaller: 1, Seed: 1})
	l, s := dsmSides(pr, 1)
	if _, err := DSMPost(l, s, Declustered, Unsorted, Config{}); err == nil {
		t.Fatal("d on larger side not rejected")
	}
	if _, err := DSMPost(l, s, Unsorted, SortedM, Config{}); err == nil {
		t.Fatal("s on smaller side not rejected")
	}
}

func TestSideValidation(t *testing.T) {
	bad := DSMSide{OIDs: []OID{0}, Keys: []int32{1, 2}, BaseN: 1}
	if err := bad.validate("x"); err == nil {
		t.Fatal("oid/key mismatch not rejected")
	}
	bad2 := DSMSide{OIDs: []OID{0}, Keys: []int32{1}, BaseN: 4, Cols: [][]int32{{1}}}
	if err := bad2.validate("x"); err == nil {
		t.Fatal("column/BaseN mismatch not rejected")
	}
	var n NSMSide
	if err := n.validate("x"); err == nil {
		t.Fatal("nil relation not rejected")
	}
}

func TestPhasesReported(t *testing.T) {
	pr := testPair(t, workload.Params{N: 9000, Omega: 3, HitRate: 1, SelLarger: 1, SelSmaller: 1, Seed: 77})
	l, s := dsmSides(pr, 2)
	res, err := DSMPost(l, s, PartialCluster, Declustered, Config{Hier: mem.Small()})
	if err != nil {
		t.Fatal(err)
	}
	tm := res.Timings
	if tm.Total <= 0 || tm.ByKind[exec.PhaseJoin] <= 0 {
		t.Fatalf("phases not populated: %+v", tm)
	}
	var sum time.Duration
	for _, d := range tm.ByKind {
		sum += d
	}
	if sum > tm.Total {
		t.Fatalf("phase sum exceeds total: %+v", tm)
	}
	if res.Window == 0 || res.SmallerBits == 0 {
		t.Fatalf("planner choices not recorded: %+v", res)
	}
}

func TestStringers(t *testing.T) {
	if Auto.String() != "auto" || Unsorted.String() != "u" || Declustered.String() != "d" {
		t.Fatalf("ProjMethod strings: %s %s %s", Auto, Unsorted, Declustered)
	}
}
