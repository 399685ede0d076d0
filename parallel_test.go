package radixdecluster

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"radixdecluster/internal/workload"
)

// Serial/parallel equivalence: ProjectJoin with Parallelism N must
// return results byte-identical to the serial paper mode run of the same
// plan line, for every strategy, across uniform, skewed and sparse
// workloads. The parallel
// operators are constructed to reproduce the serial arrangement
// exactly (see internal/exec), so these are strict equality checks,
// not set comparisons.

// equivalenceN clears the executor's serial-fallback threshold so the
// parallel code paths genuinely run.
const equivalenceN = 96 << 10

func parallelismLevels() []int {
	return []int{1, 2, 8, runtime.GOMAXPROCS(0)}
}

// workloadRelations turns a generated workload pair into public API
// relations carrying the key and pi payload columns of each base
// table.
func workloadRelations(t testing.TB, p workload.Params, pi int) (*Relation, *Relation) {
	t.Helper()
	pr, err := workload.GenPair(p)
	if err != nil {
		t.Fatal(err)
	}
	return pairRelations(t, pr, pi)
}

// pairRelations builds fresh relations over a generated pair's columns
// (not copied: relations built twice from one pair share them).
func pairRelations(t testing.TB, pr *workload.Pair, pi int, opts ...RelationOption) (*Relation, *Relation) {
	t.Helper()
	mk := func(name string, wr *workload.Relation) *Relation {
		cols := []Column{{Name: "key", Values: wr.Key()}}
		for j := 1; j <= pi; j++ {
			cols = append(cols, Column{Name: fmt.Sprintf("a%d", j), Values: wr.PayloadCol(j)})
		}
		rel, err := NewRelationOpts(name, cols, opts...)
		if err != nil {
			t.Fatal(err)
		}
		return rel
	}
	return mk("larger", pr.Larger), mk("smaller", pr.Smaller)
}

func projNames(pi int) []string {
	out := make([]string, pi)
	for j := range out {
		out[j] = fmt.Sprintf("a%d", j+1)
	}
	return out
}

// requireParallelEqual executes q with the given parallelism and
// requires the bytes of the serial run of the same plan line: a DSM
// post-projection query with Auto methods plans u/u on a runtime where
// paper mode may plan c/d, so the serial reference is pinned to the
// methods the parallel run plans.
func requireParallelEqual(t *testing.T, q JoinQuery, par int, tag string) {
	t.Helper()
	ref := q
	if st := q.Strategy; st == DSMPostDecluster || st == AutoStrategy {
		q.Parallelism = par
		p, err := PlanJoin(q)
		if err != nil {
			t.Fatalf("%s: PlanJoin: %v", tag, err)
		}
		ref.LargerMethod, ref.SmallerMethod = ProjMethod(p.plan.LargerMethod), ProjMethod(p.plan.SmallerMethod)
	}
	ref.Parallelism = 0
	want, err := ProjectJoin(ref)
	if err != nil {
		t.Fatalf("%s: serial: %v", tag, err)
	}
	q.Parallelism = par
	got, err := ProjectJoin(q)
	if err != nil {
		t.Fatalf("%s: parallel(%d): %v", tag, par, err)
	}
	if got.N != want.N {
		t.Fatalf("%s: parallel(%d): N = %d, want %d", tag, par, got.N, want.N)
	}
	if !reflect.DeepEqual(got.Names, want.Names) {
		t.Fatalf("%s: parallel(%d): names %v != %v", tag, par, got.Names, want.Names)
	}
	if !reflect.DeepEqual(got.Cols, want.Cols) {
		t.Fatalf("%s: parallel(%d): result columns differ from serial", tag, par)
	}
}

// TestParallelEquivalenceDSMPost is the core matrix: the headline
// strategy across workload shapes and worker counts.
func TestParallelEquivalenceDSMPost(t *testing.T) {
	if testing.Short() {
		t.Skip("equivalence matrix needs full-size relations")
	}
	const pi = 2
	workloads := []struct {
		name string
		p    workload.Params
	}{
		{"uniform", workload.Params{N: equivalenceN, Omega: pi + 1, HitRate: 1, SelLarger: 1, SelSmaller: 1, Seed: 42}},
		{"expanding", workload.Params{N: equivalenceN, Omega: pi + 1, HitRate: 3, SelLarger: 1, SelSmaller: 1, Seed: 43}},
		{"skewed", workload.Params{N: equivalenceN, Omega: pi + 1, HitRate: 1, Skew: 1.1, SelLarger: 1, SelSmaller: 1, Seed: 44}},
		{"sparse", workload.Params{N: equivalenceN, Omega: pi + 1, HitRate: 1, SelLarger: 0.5, SelSmaller: 1, Seed: 45}},
	}
	for _, w := range workloads {
		larger, smaller := workloadRelations(t, w.p, pi)
		q := JoinQuery{
			Larger: larger, Smaller: smaller,
			LargerKey: "key", SmallerKey: "key",
			LargerProject: projNames(pi), SmallerProject: projNames(pi),
			Strategy: DSMPostDecluster,
		}
		for _, par := range parallelismLevels() {
			requireParallelEqual(t, q, par, w.name)
		}
	}
}

// TestParallelEquivalenceMethods pins every explicit method pair of
// the DSM post-projection strategy (u/s/c larger, u/d smaller).
func TestParallelEquivalenceMethods(t *testing.T) {
	if testing.Short() {
		t.Skip("equivalence matrix needs full-size relations")
	}
	const pi = 1
	larger, smaller := workloadRelations(t,
		workload.Params{N: equivalenceN, Omega: pi + 1, HitRate: 1, SelLarger: 1, SelSmaller: 1, Seed: 46}, pi)
	for _, lm := range []ProjMethod{UnsortedMethod, SortedMethod, ClusterMethod} {
		for _, sm := range []ProjMethod{UnsortedMethod, DeclusterMethod} {
			q := JoinQuery{
				Larger: larger, Smaller: smaller,
				LargerKey: "key", SmallerKey: "key",
				LargerProject: projNames(pi), SmallerProject: projNames(pi),
				Strategy:      DSMPostDecluster,
				LargerMethod:  lm,
				SmallerMethod: sm,
			}
			requireParallelEqual(t, q, 4, fmt.Sprintf("methods %c/%c", lm, sm))
		}
	}
}

// TestParallelEquivalenceAllStrategies runs every public strategy
// with Parallelism set: since the phase-pipeline refactor all of them
// — DSM post/pre and every NSM plan — execute on the shared executor,
// and the result must match the serial run byte for byte.
func TestParallelEquivalenceAllStrategies(t *testing.T) {
	if testing.Short() {
		t.Skip("equivalence matrix needs full-size relations")
	}
	const pi = 1
	larger, smaller := workloadRelations(t,
		workload.Params{N: 32 << 10, Omega: pi + 1, HitRate: 1, SelLarger: 1, SelSmaller: 1, Seed: 47}, pi)
	for _, st := range []Strategy{
		AutoStrategy, DSMPostDecluster, DSMPre,
		NSMPreHash, NSMPrePhash, NSMPostDecluster, NSMPostJive,
	} {
		q := JoinQuery{
			Larger: larger, Smaller: smaller,
			LargerKey: "key", SmallerKey: "key",
			LargerProject: projNames(pi), SmallerProject: projNames(pi),
			Strategy: st,
		}
		requireParallelEqual(t, q, 2, st.String())
	}
}

// TestParallelEquivalenceNonDSMPost is the full-size serial/parallel
// byte-equivalence matrix for the strategies PR 1 left serial: NSM
// pre (naive and partitioned), NSM post (Radix-Decluster and Jive)
// and DSM pre-projection, across worker counts and workload shapes.
func TestParallelEquivalenceNonDSMPost(t *testing.T) {
	if testing.Short() {
		t.Skip("equivalence matrix needs full-size relations")
	}
	const pi = 2
	strategies := []Strategy{DSMPre, NSMPreHash, NSMPrePhash, NSMPostDecluster, NSMPostJive}
	workloads := []struct {
		name string
		p    workload.Params
	}{
		{"uniform", workload.Params{N: equivalenceN, Omega: pi + 1, HitRate: 1, SelLarger: 1, SelSmaller: 1, Seed: 52}},
		{"expanding", workload.Params{N: equivalenceN / 2, Omega: pi + 1, HitRate: 3, SelLarger: 1, SelSmaller: 1, Seed: 53}},
		{"skewed", workload.Params{N: equivalenceN, Omega: pi + 1, HitRate: 1, Skew: 1.1, SelLarger: 1, SelSmaller: 1, Seed: 54}},
	}
	for _, w := range workloads {
		larger, smaller := workloadRelations(t, w.p, pi)
		for _, st := range strategies {
			q := JoinQuery{
				Larger: larger, Smaller: smaller,
				LargerKey: "key", SmallerKey: "key",
				LargerProject: projNames(pi), SmallerProject: projNames(pi),
				Strategy: st,
			}
			for _, par := range parallelismLevels() {
				requireParallelEqual(t, q, par, fmt.Sprintf("%s/%s", w.name, st))
			}
		}
	}
}

// TestParallelWorkersReported pins the engine bookkeeping: serial runs
// report Workers = 0, parallel runs the pool size, and inputs below
// the executor's serial-fallback threshold never spin up a pool.
func TestParallelWorkersReported(t *testing.T) {
	larger, smaller := workloadRelations(t,
		workload.Params{N: 32 << 10, Omega: 2, HitRate: 1, SelLarger: 1, SelSmaller: 1, Seed: 55}, 1)
	tiny, tinySmall := workloadRelations(t,
		workload.Params{N: 1 << 10, Omega: 2, HitRate: 1, SelLarger: 1, SelSmaller: 1, Seed: 56}, 1)
	for _, st := range []Strategy{DSMPostDecluster, DSMPre, NSMPrePhash, NSMPostDecluster, NSMPostJive} {
		q := JoinQuery{
			Larger: larger, Smaller: smaller,
			LargerKey: "key", SmallerKey: "key",
			LargerProject: projNames(1), SmallerProject: projNames(1),
			Strategy: st,
		}
		res, err := ProjectJoin(q)
		if err != nil {
			t.Fatalf("%s serial: %v", st, err)
		}
		if res.Workers != 0 {
			t.Fatalf("%s serial run reports %d workers", st, res.Workers)
		}
		q.Parallelism = 3
		if res, err = ProjectJoin(q); err != nil {
			t.Fatalf("%s parallel: %v", st, err)
		}
		if res.Workers != 3 {
			t.Fatalf("%s parallel(3) run reports %d workers", st, res.Workers)
		}
		q.Larger, q.Smaller = tiny, tinySmall
		if res, err = ProjectJoin(q); err != nil {
			t.Fatalf("%s tiny: %v", st, err)
		}
		if res.Workers != 0 {
			t.Fatalf("%s tiny input spun up %d workers below the fallback threshold", st, res.Workers)
		}
	}
}

// TestAutoParallelism lets the planner resolve the worker count; the
// result must still equal the serial run, and the plan must report
// the executor it chose.
func TestAutoParallelism(t *testing.T) {
	if testing.Short() {
		t.Skip("equivalence matrix needs full-size relations")
	}
	const pi = 1
	larger, smaller := workloadRelations(t,
		workload.Params{N: 32 << 10, Omega: pi + 1, HitRate: 1, SelLarger: 1, SelSmaller: 1, Seed: 48}, pi)
	q := JoinQuery{
		Larger: larger, Smaller: smaller,
		LargerKey: "key", SmallerKey: "key",
		LargerProject: projNames(pi), SmallerProject: projNames(pi),
		Strategy: DSMPostDecluster,
	}
	requireParallelEqual(t, q, AutoParallelism, "auto")
}

// TestPlanJoinRecommendsParallelism checks the planner surface: the
// recommendation exists and never exceeds the machine.
func TestPlanJoinRecommendsParallelism(t *testing.T) {
	larger, smaller := workloadRelations(t,
		workload.Params{N: 8 << 10, Omega: 2, HitRate: 1, SelLarger: 1, SelSmaller: 1, Seed: 49}, 1)
	p, err := PlanJoin(JoinQuery{
		Larger: larger, Smaller: smaller,
		LargerKey: "key", SmallerKey: "key",
		LargerProject: projNames(1), SmallerProject: projNames(1),
	})
	if err != nil {
		t.Fatal(err)
	}
	if p.Parallelism < 1 || p.Parallelism > runtime.GOMAXPROCS(0) {
		t.Fatalf("recommended parallelism %d outside [1, GOMAXPROCS=%d]", p.Parallelism, runtime.GOMAXPROCS(0))
	}
}
