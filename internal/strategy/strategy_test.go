package strategy

import (
	"fmt"
	"testing"
	"time"

	"radixdecluster/internal/exec"
	"radixdecluster/internal/mem"
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

// TestResidencyMovesOnlyTheMethodSwitch: Hierarchy.ResidentBytes is
// read by the u/c and u/d switch and by nothing else. With columns
// beyond the declared LLC but inside the residency threshold a raw plan
// goes u/u at the join bits the declared levels give, and so does a
// compressed plan (the raw plan over columns decoded before their
// fetch); a threshold below the columns changes nothing.
func TestResidencyMovesOnlyTheMethodSwitch(t *testing.T) {
	const pi = 1
	pr := testPair(t, workload.Params{N: 6000, Omega: 2, HitRate: 1, SelLarger: 1, SelSmaller: 1, Seed: 41})
	l, s := dsmSides(pr, pi)
	declared := Config{Hier: mem.Small()}
	resident := declared
	resident.Hier.ResidentBytes = 1 << 20
	plan := func(l, s DSMSide, cfg Config) Plan {
		t.Helper()
		p, _, err := PlanDSMPost(l, s, Auto, Auto, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	base := plan(l, s, declared)
	if base.Methods() != "c/d" {
		t.Fatalf("declared plan is %v, want c/d", base)
	}
	if got, want := plan(l, s, resident), (Plan{LargerMethod: Unsorted, SmallerMethod: Unsorted, JoinBits: base.JoinBits}); got != want {
		t.Errorf("resident raw plan = %v, want %v", got, want)
	}
	tooSmall := declared
	tooSmall.Hier.ResidentBytes = 6000*4 - 1
	if got := plan(l, s, tooSmall); got != base {
		t.Errorf("threshold below the column: plan = %v, want the declared %v", got, base)
	}

	encodeSides(t, &l, &s)
	declared.Compress, resident.Compress, tooSmall.Compress = true, true, true
	base = plan(l, s, declared)
	if !base.Compressed || base.Methods() != "c/d" {
		t.Fatalf("declared compressed plan is %v, want c/d compressed", base)
	}
	want := Plan{LargerMethod: Unsorted, SmallerMethod: Unsorted, JoinBits: base.JoinBits, Compressed: true}
	if got := plan(l, s, resident); got != want {
		t.Errorf("resident compressed plan = %v, want %v", got, want)
	}
	if got := plan(l, s, tooSmall); got != base {
		t.Errorf("compressed, threshold below the column: plan = %v, want the declared %v", got, base)
	}
	res, err := DSMPost(l, s, Auto, Auto, resident)
	if err != nil {
		t.Fatal(err)
	}
	compareRows(t, "resident u/u compressed", dsmResultRows(t, res, pi), expectedRows(pr, pi))
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
