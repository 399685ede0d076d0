package radixdecluster

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"radixdecluster/internal/workload"
)

// memPoolQueries builds the mixed-strategy query set the arena tests
// hammer with: every strategy over a shared workload shape, all above
// MinParallelN so the parallel operators (and their leased buffers)
// genuinely run.
func memPoolQueries(t *testing.T) []JoinQuery {
	t.Helper()
	const pi = 2
	larger, smaller := workloadRelations(t,
		workload.Params{N: 32 << 10, Omega: pi + 1, HitRate: 1, SelLarger: 1, SelSmaller: 1, Seed: 77}, pi)
	var queries []JoinQuery
	for _, st := range []Strategy{DSMPostDecluster, DSMPre, NSMPreHash, NSMPrePhash, NSMPostDecluster, NSMPostJive} {
		queries = append(queries, JoinQuery{
			Larger: larger, Smaller: smaller,
			LargerKey: "key", SmallerKey: "key",
			LargerProject: projNames(pi), SmallerProject: projNames(pi),
			Strategy: st,
		})
	}
	return queries
}

// TestMemPoolByteIdentical is the arena's correctness contract: a
// concurrent mixed-strategy hammer over recycled buffers must produce
// exactly the bytes of the serial engine, the make-only reference —
// the arena changes where transient backing memory comes from, never
// what the operators write into it. It also pins the accounting:
// pooled runs report leased bytes, and no lease survives its query
// (leak check).
func TestMemPoolByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test needs full-size relations")
	}
	queries := memPoolQueries(t)

	want := make([]*Result, len(queries))
	for i, q := range queries {
		q.Parallelism = 0
		res, err := ProjectJoin(q)
		if err != nil {
			t.Fatalf("%s serial: %v", queries[i].Strategy, err)
		}
		if res.Timing.Mem.Acquired != 0 {
			t.Fatalf("%s: serial run leased %d bytes", queries[i].Strategy, res.Timing.Mem.Acquired)
		}
		want[i] = res
	}

	rt := NewRuntime(RuntimeConfig{})
	defer rt.Close()

	// Two rounds: the second runs against a warm arena, where recycled
	// buffers (not correctness-neutral-by-luck fresh zeroed memory) back
	// the operators.
	for round := 0; round < 2; round++ {
		var wg sync.WaitGroup
		errs := make([]error, len(queries))
		got := make([]*Result, len(queries))
		for i, q := range queries {
			wg.Add(1)
			go func(i int, q JoinQuery) {
				defer wg.Done()
				q.Parallelism = 4
				q.Runtime = rt
				res, err := ProjectJoin(q)
				if err != nil {
					errs[i] = fmt.Errorf("%s: %w", q.Strategy, err)
					return
				}
				got[i] = res
			}(i, q)
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got[i].Cols, want[i].Cols) {
				t.Fatalf("round %d %s: result differs from serial bytes", round, queries[i].Strategy)
			}
			if got[i].Timing.Mem.Acquired <= 0 {
				t.Fatalf("%s: pooled run leased no bytes", queries[i].Strategy)
			}
			if hw, acq := got[i].Timing.Mem.HighWater, got[i].Timing.Mem.Acquired; hw <= 0 || hw > acq {
				t.Fatalf("%s: high-water %d outside (0, acquired=%d]", queries[i].Strategy, hw, acq)
			}
		}
	}

	s := rt.MemPoolStats()
	if s.Leases != 0 {
		t.Fatalf("%d leases still open after all queries finished", s.Leases)
	}
	if s.HitRate() <= 0 {
		t.Fatalf("no recycled buffers after a warm round (hits=%d misses=%d)", s.Hits, s.Misses)
	}
}

// TestWarmQueryAllocAccounting pins the zero-alloc-steady-state claim
// from the accounting side: once the arena is warm, a repeated query
// reports (almost) all of its leased bytes served by recycled buffers
// and stays under an absolute allocation ceiling. The byte-volume
// counterpart is the benchmark harness's alloc_mb_per_query, which CI
// gates on a live joinserve.
func TestWarmQueryAllocAccounting(t *testing.T) {
	if testing.Short() {
		t.Skip("needs full-size relations")
	}
	queries := memPoolQueries(t)
	q := queries[0]
	rt := NewRuntime(RuntimeConfig{})
	defer rt.Close()
	run := func() *Result {
		qq := q
		qq.Parallelism = 4
		qq.Runtime = rt
		res, err := ProjectJoin(qq)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	run().Release() // warm the arena, result columns included
	res := run()
	defer res.Release()
	if res.Timing.Mem.Acquired <= 0 {
		t.Fatal("warm run leased no bytes")
	}
	if reused := float64(res.Timing.Mem.Reused) / float64(res.Timing.Mem.Acquired); reused < 0.9 {
		t.Fatalf("warm run reused only %.0f%% of its leased bytes (acq=%d reuse=%d)",
			reused*100, res.Timing.Mem.Acquired, res.Timing.Mem.Reused)
	}

	// Absolute ceiling on a warm query's allocations. The pooled
	// steady state measures in the low hundreds (bookkeeping plus
	// goroutine scheduling noise; unreleased result columns miss); the
	// ceiling sits far above that but far below the tens of thousands
	// an unpooled run costs, so a regression that stops recycling the
	// big transients trips it immediately.
	const allocCeiling = 2000
	if allocs := testing.AllocsPerRun(3, func() { run() }); allocs > allocCeiling {
		t.Fatalf("warm query allocated %.0f objects per run, ceiling %d", allocs, allocCeiling)
	}
}
