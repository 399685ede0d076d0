package strategy

import (
	"runtime"
	"testing"

	"radixdecluster/internal/workload"
)

// TestLoneQueryIsARuntimeOfOne pins the single execution path: a
// parallel run with a nil Config.Runtime is a lease on the process
// default runtime — it reports scheduler and arena accounting like any
// runtime query, every such run lands on the same runtime, and nothing
// (goroutine, admission slot, arena lease) outlives a query.
func TestLoneQueryIsARuntimeOfOne(t *testing.T) {
	pr := testPair(t, workload.Params{N: 1 << 15, Omega: 3, HitRate: 1, SelLarger: 1, SelSmaller: 1, Seed: 7})
	l, s := dsmSides(pr, 2)
	rt := DefaultRuntime()
	goroutines := 0
	for i := 0; i < 32; i++ {
		before := rt.SchedStats()
		res, err := DSMPost(l, s, PartialCluster, Declustered, Config{Parallelism: 2})
		if err != nil {
			t.Fatal(err)
		}
		if res.Workers != 2 {
			t.Fatalf("run %d: workers = %d, want the nominal 2", i, res.Workers)
		}
		tasks := res.Timings.Sched.Tasks()
		if tasks == 0 {
			t.Fatalf("run %d: no morsels scheduled on a runtime (Timings.Sched is zero)", i)
		}
		if res.Timings.Mem.Acquired == 0 {
			t.Fatalf("run %d: no arena accounting (Timings.Mem is zero)", i)
		}
		if got := rt.SchedStats().Sub(before).Tasks(); got != tasks {
			t.Fatalf("run %d: the default runtime scheduled %d morsels, the run reports %d — it ran elsewhere", i, got, tasks)
		}
		if i == 0 {
			goroutines = runtime.NumGoroutine()
		}
	}
	if got := runtime.NumGoroutine(); got != goroutines {
		t.Fatalf("%d goroutines after 32 runs, %d after the first: a query left one behind", got, goroutines)
	}
	if got := rt.ActiveQueries(); got != 0 {
		t.Fatalf("%d admission slots still held", got)
	}
	if got := rt.MemStats().Leases; got != 0 {
		t.Fatalf("%d arena leases still open", got)
	}
}
