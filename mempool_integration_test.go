package radixdecluster

import (
	"fmt"
	"math/bits"
	"reflect"
	"runtime"
	"strings"
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
// exactly the bytes of the serial engine — the arena changes where
// transient backing memory comes from, never what the operators write
// into it. The serial engine leases from the same arena, so it is no
// make-only reference; TestSerialMatchesMapOracle holds its results to
// an arena-free one. It also pins the accounting: serial and pooled
// runs report leased bytes, and no lease survives its query (leak
// check).
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
		if res.Timing.Mem.Acquired <= 0 {
			t.Fatalf("%s: serial run leased no bytes", queries[i].Strategy)
		}
		want[i] = res
	}

	rt := NewRuntime(RuntimeConfig{})
	defer rt.Close()
	// Every runtime draws from the one process arena the serial engine
	// leases from.
	if s := rt.MemPoolStats(); s.Leases != 0 {
		t.Fatalf("%d leases still open after the serial queries", s.Leases)
	}

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

// TestSerialWarmQueryAllocation pins what paper mode costs the Go heap
// once the arena is warm: a serial DSM post-projection c/d query —
// unreleased results, as a caller that never recycles them — allocates
// its result columns and little else, because every intermediate is a
// recycled arena buffer (Timing.Mem.Reused covers every byte that is not
// a result column) handed back after its last reader. Making each
// intermediate fresh cost about twice the result bytes on top.
func TestSerialWarmQueryAllocation(t *testing.T) {
	if testing.Short() {
		t.Skip("needs full-size relations")
	}
	const pi, slack = 2, 1 << 20
	larger, smaller := workloadRelations(t,
		workload.Params{N: 256 << 10, Omega: pi + 1, HitRate: 1, SelLarger: 1, SelSmaller: 1, Seed: 93}, pi)
	q := JoinQuery{
		Larger: larger, Smaller: smaller, LargerKey: "key", SmallerKey: "key",
		LargerProject: projNames(pi), SmallerProject: projNames(pi),
		Strategy: DSMPostDecluster, LargerMethod: ClusterMethod, SmallerMethod: DeclusterMethod,
	}
	run := func() *Result {
		res, err := ProjectJoin(q)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	run()
	run()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res := run()
	runtime.ReadMemStats(&after)
	if !strings.Contains(res.Plan, "methods=c/d") || res.Workers != 0 {
		t.Fatalf("plan %q on %d workers, want serial c/d", res.Plan, res.Workers)
	}
	// A result column is one arena class: the next power of two of its
	// bytes.
	colBytes := int64(1) << bits.Len(uint(4*res.N-1))
	resultBytes := int64(len(res.Cols)) * colBytes
	alloc := int64(after.TotalAlloc - before.TotalAlloc)
	t.Logf("warm query: %d B allocated, %d B of result columns; leased %+v", alloc, resultBytes, res.Timing.Mem)
	if alloc > resultBytes+slack {
		t.Errorf("warm serial query allocated %d B of Go memory, want at most its %d B of result columns + %d", alloc, resultBytes, slack)
	}
	m := res.Timing.Mem
	if transient := m.Acquired - resultBytes; transient <= 0 || m.Reused < transient {
		t.Errorf("warm serial query: %d B acquired, %d B reused; its %d B of intermediates must all be recycled", m.Acquired, m.Reused, transient)
	}
}
