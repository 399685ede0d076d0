package exec

import (
	"runtime"
	"sync/atomic"
	"testing"

	"radixdecluster/internal/calibrator"
)

// homeOf computes the placement of key under seed on a w-worker
// runtime — the same hash submit uses.
func homeOf(seed, key uint64, workers int) int {
	j := &rtJob{seed: seed, aff: func(int) uint64 { return key }}
	return j.home(0, workers)
}

// keyHomedOn searches for an affinity key whose home is the given
// worker (tiny: the hash spreads, so a handful of probes suffice).
func keyHomedOn(t *testing.T, seed uint64, worker, workers int) uint64 {
	t.Helper()
	for key := uint64(0); key < 1024; key++ {
		if homeOf(seed, key, workers) == worker {
			return key
		}
	}
	t.Fatal("no key homes on the worker — placement hash broken")
	return 0
}

// holdWorkers parks n of rt's workers inside hostage morsels and
// returns their ids — DISCOVERED at run time, whichever workers pick the
// morsels up — and the function that lets them go (and waits for the
// hostage job to finish). A blocked worker cannot claim a second
// morsel, so n started morsels are n distinct stuck workers; with
// n = rt.Workers() the whole runtime is stuck and whatever is submitted
// next stays exactly where submit placed it until release.
func holdWorkers(t *testing.T, rt *Runtime, n int) (busy []int, release func()) {
	t.Helper()
	hostage := NewEngine(rt, n)
	started := make(chan int)
	free := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		hostage.run(n, func(worker, _ int, _ *Scratch) {
			started <- worker
			<-free
		})
	}()
	for len(busy) < n {
		busy = append(busy, <-started)
	}
	return busy, func() {
		close(free)
		<-done
		hostage.Close()
	}
}

// placementOf reports where submit places the morsels of one
// p.runAff(ntasks, aff, ...) job: out[task] is the worker whose deque
// holds the task while every worker is held hostage. The job then
// runs to completion (stealing and all) before placementOf returns.
func placementOf(t *testing.T, rt *Runtime, p *Engine, ntasks int, aff func(int) uint64) []int {
	t.Helper()
	_, release := holdWorkers(t, rt, rt.Workers())
	var ran atomic.Int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		p.runAff(ntasks, aff, func(_, _ int, _ *Scratch) { ran.Add(1) })
	}()
	out := make([]int, ntasks)
	for queued := 0; queued < ntasks; {
		runtime.Gosched()
		queued = 0
		rt.mu.Lock()
		for w := range rt.dq {
			for _, r := range rt.dq[w].runs {
				for _, task := range r.tasks {
					out[task] = w
					queued++
				}
			}
		}
		rt.mu.Unlock()
	}
	release()
	<-done
	if ran.Load() != int64(ntasks) {
		t.Fatalf("ran %d of %d morsels", ran.Load(), ntasks)
	}
	return out
}

// TestStealRescuesStarvedWorker is the deterministic starved-worker
// scenario: one worker is held hostage inside a long morsel, and a
// whole job is then homed onto exactly that worker. Without stealing
// the job could not run until the hostage released; with it, the idle
// worker must steal every morsel. The job's affinity key is chosen to
// home on the worker holdWorkers found stuck, so the test does not
// depend on scheduling races.
func TestStealRescuesStarvedWorker(t *testing.T) {
	rt := NewRuntimeOpts(Options{Workers: 2, Topology: calibrator.FlatTopology(2)})
	defer rt.Close()
	victim := NewEngine(rt, 2)
	defer victim.Close()
	held, release := holdWorkers(t, rt, 1)
	busy := held[0] // this worker is now stuck until release

	const ntasks = 8
	key := keyHomedOn(t, victim.affSeed, busy, 2)
	ran := make([]int, ntasks)
	victim.runAff(ntasks, func(int) uint64 { return key }, func(worker, task int, _ *Scratch) {
		ran[task] = worker
	})
	release()

	for task, worker := range ran {
		if worker == busy {
			t.Fatalf("task %d ran on the hostage worker %d", task, busy)
		}
	}
	st := victim.sched.stats()
	if st.LocalHits != 0 || st.Steals() != ntasks {
		t.Fatalf("starved job stats: %v, want 0 local / %d steals", st, ntasks)
	}
	if got := rt.SchedStats(); got.Tasks() < ntasks+1 {
		t.Fatalf("runtime-wide counters missed tasks: %v", got)
	}
}

// TestMorselsPlacedOnHome: submit puts every morsel on the deque of
// rtJob.home — a constant-key job entirely on one worker, an
// identity-keyed job spread over several — and every placed morsel is
// then claimed exactly once, as a local hit or a steal.
func TestMorselsPlacedOnHome(t *testing.T) {
	rt := NewRuntimeOpts(Options{Workers: 4, Topology: calibrator.FlatTopology(4)})
	defer rt.Close()
	p := NewEngine(rt, 4)
	defer p.Close()

	const ntasks = 32
	key := keyHomedOn(t, p.affSeed, 2, 4)
	for task, worker := range placementOf(t, rt, p, ntasks, func(int) uint64 { return key }) {
		if worker != 2 {
			t.Fatalf("task %d placed on worker %d, its key homes on 2", task, worker)
		}
	}
	if st := p.sched.stats(); st.Tasks() != ntasks {
		t.Fatalf("constant-key job stats: %v, want %d claims", st, ntasks)
	}

	seen := map[int]bool{}
	for task, worker := range placementOf(t, rt, p, 64, nil) {
		if want := homeOf(p.affSeed, uint64(task), 4); worker != want {
			t.Fatalf("task %d placed on worker %d, home is %d", task, worker, want)
		}
		seen[worker] = true
	}
	if len(seen) < 2 {
		t.Fatalf("identity placement used %d workers, want several", len(seen))
	}
}

// TestCrossPhaseAffinity pins the refactor's point: two jobs that
// decompose the same domain into the same task count have task t
// placed on the same worker both times (where it then runs is
// statistical — an idle worker may steal it).
func TestCrossPhaseAffinity(t *testing.T) {
	rt := NewRuntimeOpts(Options{Workers: 4, Topology: calibrator.FlatTopology(4)})
	defer rt.Close()
	p := NewEngine(rt, 4)
	defer p.Close()

	const ntasks = 40
	phase1 := placementOf(t, rt, p, ntasks, nil)
	phase2 := placementOf(t, rt, p, ntasks, nil)
	for task := range phase1 {
		if phase1[task] != phase2[task] {
			t.Fatalf("task %d moved: worker %d in phase 1, %d in phase 2",
				task, phase1[task], phase2[task])
		}
	}
}

// TestStealDistanceClassification: on a synthetic 2-node topology, a
// steal's distance class matches the thief/home relationship. Workers
// 0,1 are SMT siblings on node 0; worker 2 shares only their LLC;
// worker 3 is on the remote node.
func TestStealDistanceClassification(t *testing.T) {
	topo := &calibrator.Topology{Source: "test", CPUs: []calibrator.TopoCPU{
		{ID: 0, Core: 0, LLC: 0, Node: 0},
		{ID: 1, Core: 0, LLC: 0, Node: 0},
		{ID: 2, Core: 1, LLC: 0, Node: 0},
		{ID: 3, Core: 2, LLC: 1, Node: 1},
	}}
	rt := NewRuntimeOpts(Options{Workers: 4, Topology: topo})
	defer rt.Close()

	// The victim orders must be topology-sorted: worker 0 steals from
	// its sibling 1 first, 2 second, remote 3 last.
	want := []int{1, 2, 3}
	for i, v := range rt.victims[0] {
		if v.worker != want[i] {
			t.Fatalf("worker 0 victim order %v, want %v", rt.victims[0], want)
		}
	}
	if rt.victims[0][0].dist != calibrator.DistSibling ||
		rt.victims[0][1].dist != calibrator.DistShared ||
		rt.victims[0][2].dist != calibrator.DistRemote {
		t.Fatalf("worker 0 victim distances: %v", rt.victims[0])
	}
	// Worker 3's nearest victims are all remote (it is alone on node 1).
	for _, v := range rt.victims[3] {
		if v.dist != calibrator.DistRemote {
			t.Fatalf("worker 3 victim %v should be remote", v)
		}
	}

	// Drive one hostage scenario and check the stolen morsels were
	// classified (any class — which thief wins depends on timing, but
	// every steal must land in exactly one bucket).
	victim := NewEngine(rt, 4)
	defer victim.Close()
	held, release := holdWorkers(t, rt, 1)
	key := keyHomedOn(t, victim.affSeed, held[0], 4)
	const ntasks = 16
	victim.runAff(ntasks, func(int) uint64 { return key }, func(_, _ int, _ *Scratch) {})
	release()
	st := victim.sched.stats()
	if st.Steals() != ntasks || st.LocalHits != 0 {
		t.Fatalf("hostage job stats: %v, want all %d stolen", st, ntasks)
	}
	if st.AffinityMisses() != st.Steals() {
		t.Fatalf("misses %d != steals %d", st.AffinityMisses(), st.Steals())
	}
}

// TestEmptyTopologyTolerated: an injected empty topology must still
// schedule (Distance classes every pair of workers as LLC-sharing).
func TestEmptyTopologyTolerated(t *testing.T) {
	rt := NewRuntimeOpts(Options{Workers: 2, Topology: &calibrator.Topology{}})
	defer rt.Close()
	p := NewEngine(rt, 2)
	defer p.Close()
	var ran atomic.Int64
	p.run(4, func(_, _ int, _ *Scratch) { ran.Add(1) })
	if ran.Load() != 4 {
		t.Fatalf("ran %d of 4 tasks", ran.Load())
	}
}

// TestSchedStatsArithmetic pins the counter algebra the CLI and CI
// smoke rely on.
func TestSchedStatsArithmetic(t *testing.T) {
	s := SchedStats{LocalHits: 6, StealsSibling: 1, StealsShared: 2, StealsRemote: 1}
	if s.Steals() != 4 || s.Tasks() != 10 || s.AffinityMisses() != 4 {
		t.Fatalf("bad arithmetic: %+v", s)
	}
	if got := s.LocalHitRate(); got != 0.6 {
		t.Fatalf("hit rate %g, want 0.6", got)
	}
	if got := s.WarmHitRate(); got != 0.7 {
		t.Fatalf("warm rate %g, want 0.7 (sibling steals count warm)", got)
	}
	if (SchedStats{}).LocalHitRate() != 0 {
		t.Fatal("empty stats must report rate 0")
	}
}
