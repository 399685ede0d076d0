package exec

import (
	"runtime"
	"sync/atomic"
	"testing"
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
				for _, task := range r.tasks[r.head:] {
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
	rt := NewRuntimeOpts(Options{Workers: 2})
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
	rt := NewRuntimeOpts(Options{Workers: 4})
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
	rt := NewRuntimeOpts(Options{Workers: 4})
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

// TestStealRingOrder: an idle worker visits the other workers in ring
// order from itself and reports the victim's ring offset as the steal
// distance. With all four workers held hostage, one morsel is placed on
// each of two victims and the test claims in worker 1's place: the nearer
// victim's morsel comes first, whichever was placed first.
func TestStealRingOrder(t *testing.T) {
	rt := NewRuntimeOpts(Options{Workers: 4, MaxConcurrent: 4})
	defer rt.Close()
	near, far := NewEngine(rt, 4), NewEngine(rt, 4)
	defer near.Close()
	defer far.Close()
	_, release := holdWorkers(t, rt, 4)
	defer release()
	before := rt.SchedStats()
	const thief = 1
	nearJob := &rtJob{ntasks: 1, e: near, seed: near.affSeed}
	farJob := &rtJob{ntasks: 1, e: far, seed: far.affSeed}
	rt.mu.Lock()
	rt.dq[(thief+3)%4].push(rt, farJob, 0) // placed first, three steps round the ring
	rt.dq[(thief+2)%4].push(rt, nearJob, 0)
	rt.mu.Unlock()
	for _, want := range []struct {
		j    *rtJob
		dist int
	}{{nearJob, 2}, {farJob, 3}} {
		j, _, dist, ok := rt.nextTask(thief)
		if !ok || j != want.j || dist != want.dist {
			t.Fatalf("worker %d stole job %p at distance %d, want %p at %d", thief, j, dist, want.j, want.dist)
		}
	}
	if st := rt.SchedStats().Sub(before); st.Stolen != 2 || st.LocalHits != 0 {
		t.Fatalf("runtime counters moved by %v over two steals", st)
	}
}

// TestSchedStatsArithmetic pins the counter algebra the CLI and CI
// smoke rely on.
func TestSchedStatsArithmetic(t *testing.T) {
	s := SchedStats{LocalHits: 6, Stolen: 4}
	if s.Steals() != 4 || s.Tasks() != 10 {
		t.Fatalf("bad arithmetic: %+v", s)
	}
	if got := s.LocalHitRate(); got != 0.6 {
		t.Fatalf("hit rate %g, want 0.6", got)
	}
	if (SchedStats{}).LocalHitRate() != 0 {
		t.Fatal("empty stats must report rate 0")
	}
}

// TestDequeCyclesAllocateNothing pins push's promise that steady-state
// submission allocates nothing, across steals: a run thieves drained
// goes back to the freelist with its whole task capacity, and the deque
// keeps its run slots, so repeated submit → steal → drain cycles reuse
// every array the first cycle grew.
func TestDequeCyclesAllocateNothing(t *testing.T) {
	rt := &Runtime{}
	var d wdeque
	jobs := []*rtJob{{}, {}, {}}
	const perJob, stolen = 64, 96
	cycle := func() {
		for _, j := range jobs {
			for task := range perJob {
				d.push(rt, j, task)
			}
		}
		// Thieves take the oldest job's whole run and half of the next
		// one's; the owner pops the rest.
		for range stolen {
			if _, _, ok := d.steal(rt); !ok {
				t.Fatal("steal found the deque empty")
			}
		}
		popped := 0
		for {
			if _, _, ok := d.popLocal(rt); !ok {
				break
			}
			popped++
		}
		if popped != len(jobs)*perJob-stolen || len(d.runs) != 0 {
			t.Fatalf("owner popped %d morsels, %d runs left; want %d, 0", popped, len(d.runs), len(jobs)*perJob-stolen)
		}
	}
	cycle() // grows the task arrays, the run slots and the freelist
	if allocs := testing.AllocsPerRun(20, cycle); allocs != 0 {
		t.Fatalf("submit → steal → drain allocates %v times per cycle, want 0", allocs)
	}
}
