package radixdecluster

import (
	"fmt"
	"slices"
	"testing"

	"radixdecluster/internal/exec"
	"radixdecluster/internal/workload"
)

// mapProjectJoin is the arena-free oracle of a project-join over a
// generated pair: a Go map from each smaller key to its tuples, probed
// by every larger tuple, emitting [larger a1..aπ | smaller a1..aπ] per
// match. It shares no code with the engines — no clustering, no hash
// table of theirs, no arena — and returns the rows as sortedRows lays
// out a result: column-major, rows in ascending order.
func mapProjectJoin(pr *workload.Pair, pi int) [][]int32 {
	larger, smaller := pr.Larger, pr.Smaller
	bySmallerKey := make(map[int32][]int)
	for o, k := range smaller.Key() {
		bySmallerKey[k] = append(bySmallerKey[k], o)
	}
	var rows [][]int32
	for lo, k := range larger.Key() {
		for _, so := range bySmallerKey[k] {
			row := make([]int32, 0, 2*pi)
			for j := 1; j <= pi; j++ {
				row = append(row, larger.PayloadCol(j)[lo])
			}
			for j := 1; j <= pi; j++ {
				row = append(row, smaller.PayloadCol(j)[so])
			}
			rows = append(rows, row)
		}
	}
	slices.SortFunc(rows, slices.Compare)
	cols := make([][]int32, 2*pi)
	for c := range cols {
		cols[c] = make([]int32, len(rows))
		for i, row := range rows {
			cols[c][i] = row[c]
		}
	}
	return cols
}

// TestSerialMatchesMapOracle holds paper mode, and the runtime, to an
// oracle that owns no arena: the serial engine leases its
// intermediates and result arrays from the process arena like a
// runtime query, so the serial-vs-runtime byte identity the other
// equivalence tests check no longer compares against freshly made
// memory. Every strategy — DSM post-projection under its planned
// methods (u/u over join images on the runtime) and forced c/d and
// s/u — must return the map join's rows as a multiset, at hit rates
// below, at and above one match per tuple, on an arena warmed by the
// runs before it: serially, and at Parallelism 2 on an explicit
// 2-worker runtime, raw and over relations WithCompression under
// CompressionOn (the u/u plan then projects encoded join images;
// every other plan runs raw). Each side holds more than exec.MinParallelN
// tuples, race builds included, so the runtime leg is planned and run
// parallel.
func TestSerialMatchesMapOracle(t *testing.T) {
	const pi = 2
	n := 40000
	if raceEnabled {
		n = exec.MinParallelN + exec.MinParallelN/4
	}
	type variant struct {
		st     Strategy
		lm, sm ProjMethod
	}
	variants := []variant{
		{st: DSMPostDecluster},
		{st: DSMPostDecluster, lm: ClusterMethod, sm: DeclusterMethod},
		{st: DSMPostDecluster, lm: SortedMethod, sm: UnsortedMethod},
		{st: DSMPre}, {st: NSMPreHash}, {st: NSMPrePhash}, {st: NSMPostDecluster}, {st: NSMPostJive},
	}
	rt := NewRuntime(RuntimeConfig{Workers: 2})
	defer rt.Close()
	legs := []struct {
		name        string
		rt          *Runtime
		parallelism int
		comp        Compression
	}{{"serial", nil, 0, CompressionOff}, {"runtime", rt, 2, CompressionOff}, {"runtime compressed", rt, 2, CompressionOn}}
	for _, hit := range []float64{0.3, 1, 3} {
		pr, err := workload.GenPair(workload.Params{N: n, Omega: pi + 1, HitRate: hit, SelLarger: 1, SelSmaller: 1, Seed: 92})
		if err != nil {
			t.Fatal(err)
		}
		want := mapProjectJoin(pr, pi)
		for _, leg := range legs {
			var opts []RelationOption
			if leg.comp == CompressionOn {
				opts = append(opts, WithCompression())
			}
			larger, smaller := pairRelations(t, pr, pi, opts...)
			for _, v := range variants {
				tag := fmt.Sprintf("%s hit=%g %s %q/%q", leg.name, hit, v.st, rune(v.lm), rune(v.sm))
				res, err := ProjectJoin(JoinQuery{
					Larger: larger, Smaller: smaller, LargerKey: "key", SmallerKey: "key",
					LargerProject: projNames(pi), SmallerProject: projNames(pi),
					Strategy: v.st, LargerMethod: v.lm, SmallerMethod: v.sm,
					Runtime: leg.rt, Parallelism: leg.parallelism, Compression: leg.comp,
				})
				if err != nil {
					t.Fatalf("%s: %v", tag, err)
				}
				if (res.Workers > 0) != (leg.rt != nil) {
					t.Fatalf("%s: ran on %d workers", tag, res.Workers)
				}
				// Only the runtime's u/u plan over join images runs
				// compressed.
				if overImages := v.st == DSMPostDecluster && v.lm == AutoMethod; res.Compressed != (leg.comp == CompressionOn && overImages) {
					t.Fatalf("%s: plan %s, Compressed = %v", tag, res.Plan, res.Compressed)
				}
				if res.N != len(want[0]) {
					t.Fatalf("%s: %d rows, the oracle %d", tag, res.N, len(want[0]))
				}
				for c, col := range sortedRows(res) {
					if !slices.Equal(col, want[c]) {
						t.Fatalf("%s: column %d differs from the map join's rows", tag, c)
					}
				}
				res.Release()
			}
		}
	}
}
