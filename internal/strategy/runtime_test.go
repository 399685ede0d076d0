package strategy

import (
	"bytes"
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
			goroutines = moduleGoroutines()
		}
	}
	if got := moduleGoroutines(); got != goroutines {
		t.Fatalf("%d goroutines after 32 runs, %d after the first: a query left one behind", got, goroutines)
	}
	if got := rt.ActiveQueries(); got != 0 {
		t.Fatalf("%d admission slots still held", got)
	}
	if got := rt.MemStats().Leases; got != 0 {
		t.Fatalf("%d arena leases still open", got)
	}
}

// moduleGoroutines counts the goroutines running or started by this
// module's code (the runtime's workers, this test, anything a query
// starts). The test framework's own goroutines are left out: the
// previous test's goroutine can still be exiting when a count is taken.
func moduleGoroutines() int {
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	count := 0
	for _, g := range bytes.Split(buf, []byte("\n\n")) {
		if bytes.Contains(g, []byte("radixdecluster/")) {
			count++
		}
	}
	return count
}
