package exec

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// holdWorkers parks n of rt's workers inside hostage morsels and
// returns their ids — DISCOVERED at run time, whichever workers pick the
// morsels up — and the function that lets them go (and waits for the
// hostage job to finish). A blocked worker cannot claim a second
// morsel, so n started morsels are n distinct stuck workers; with
// n = rt.Workers() the whole runtime is stuck and whatever is submitted
// next stays unclaimed until release.
func holdWorkers(t *testing.T, rt *Runtime, n int) (busy []int, release func()) {
	t.Helper()
	hostage := NewEngine(rt, n)
	started := make(chan int)
	free := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		hostage.submit(n, func(_ int, s *Scratch) {
			started <- s.worker
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

// placementOf reports where one p.submit(ntasks, ...) job homes its
// tasks: out[task] is the worker whose class holds the task, read off
// the job's claim cursors while every worker is held hostage. The job
// then runs to completion (stealing and all), and placementOf checks
// that every task was placed once and ran once.
func placementOf(t *testing.T, rt *Runtime, p *Engine, ntasks int) []int {
	t.Helper()
	_, release := holdWorkers(t, rt, rt.Workers())
	ran := make([]atomic.Int32, ntasks)
	done := make(chan struct{})
	go func() {
		defer close(done)
		p.submit(ntasks, func(task int, _ *Scratch) { ran[task].Add(1) })
	}()
	out, placed := make([]int, ntasks), make([]int, ntasks)
	for submitted := false; !submitted; {
		runtime.Gosched()
		rt.mu.Lock()
		if submitted = len(rt.active) == 1; submitted {
			j := rt.active[0]
			for w, next := range j.next {
				for task := next; task < j.ntasks; task += rt.workers {
					out[task] = w
					placed[task]++
				}
			}
		}
		rt.mu.Unlock()
	}
	release()
	<-done
	for task := range ran {
		if placed[task] != 1 || ran[task].Load() != 1 {
			t.Fatalf("task %d of %d placed %d times and ran %d times, want once each", task, ntasks, placed[task], ran[task].Load())
		}
	}
	return out
}

// TestMorselsPlacedOnHome pins placement: task t of an engine's job
// sits in the class of worker (t + rot) mod W, and every task is placed
// once and claimed once (as a local hit or a steal), for every runtime
// width and job size.
func TestMorselsPlacedOnHome(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 4} {
		for _, nominal := range []int{1, 2, 8} {
			rt := NewRuntimeOpts(Options{Workers: workers, MaxConcurrent: 4})
			e := NewEngine(rt, nominal)
			ntasks := nominal * morselsPerWorker
			for task, w := range placementOf(t, rt, e, ntasks) {
				if want := (task + e.rot) % workers; w != want {
					t.Fatalf("W=%d nominal %d: task %d placed on worker %d, want %d", workers, nominal, task, w, want)
				}
			}
			if st := e.sched.stats(); st.Tasks() != int64(ntasks) {
				t.Fatalf("W=%d nominal %d: %v, want %d claims", workers, nominal, st, ntasks)
			}
			e.Close()
			rt.Close()
		}
	}
}

// TestCrossPhaseAffinity pins the point of rotation placement: equal
// task indices of one engine's jobs share a worker however the jobs
// decompose (where a task then runs is statistical — an idle worker may
// steal it), and the one-task jobs of two successive engines land on
// different workers.
func TestCrossPhaseAffinity(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 4} {
		for _, nominal := range []int{1, 2, 8} {
			rt := NewRuntimeOpts(Options{Workers: workers, MaxConcurrent: 4})
			e := NewEngine(rt, nominal)
			ntasks := nominal * morselsPerWorker
			phase1 := placementOf(t, rt, e, ntasks)
			phase2 := placementOf(t, rt, e, ntasks+3)
			for task := range phase1 {
				if phase1[task] != phase2[task] {
					t.Fatalf("W=%d nominal %d: task %d moved from worker %d to %d between jobs", workers, nominal, task, phase1[task], phase2[task])
				}
			}
			e.Close()
			a, b := NewEngine(rt, nominal), NewEngine(rt, nominal)
			if pa, pb := placementOf(t, rt, a, 1), placementOf(t, rt, b, 1); workers > 1 && pa[0] == pb[0] {
				t.Fatalf("W=%d nominal %d: successive engines' one-task jobs both on worker %d", workers, nominal, pa[0])
			}
			a.Close()
			b.Close()
			rt.Close()
		}
	}
}

// TestStealRescuesStarvedWorker is the deterministic starved-worker
// scenario: one worker is held hostage inside a long morsel, and a job
// is then submitted whose tasks rotation spreads over both workers.
// Without stealing the job could not finish until the hostage released;
// with it, the idle worker runs its own class and steals every morsel
// of the hostage's.
func TestStealRescuesStarvedWorker(t *testing.T) {
	rt := NewRuntimeOpts(Options{Workers: 2})
	defer rt.Close()
	victim := NewEngine(rt, 2)
	defer victim.Close()
	held, release := holdWorkers(t, rt, 1)
	busy := held[0] // this worker is now stuck until release

	const ntasks = 8
	ran := make([]int, ntasks)
	victim.submit(ntasks, func(task int, s *Scratch) { ran[task] = s.worker })
	release()

	homed := 0 // tasks in the hostage's class
	for task, worker := range ran {
		if worker == busy {
			t.Fatalf("task %d ran on the hostage worker %d", task, busy)
		}
		if (task+victim.rot)%2 == busy {
			homed++
		}
	}
	st := victim.sched.stats()
	if homed != ntasks/2 || st.Steals() != int64(homed) || st.LocalHits != int64(ntasks-homed) {
		t.Fatalf("starved job stats: %v, want %d local / %d steals", st, ntasks-homed, homed)
	}
	if got := rt.SchedStats(); got.Tasks() < ntasks+1 {
		t.Fatalf("runtime-wide counters missed tasks: %v", got)
	}
}

// TestStealRingOrder: an idle worker visits the other workers in ring
// order from itself and reports the victim's ring offset as the steal
// distance. With all four workers held hostage, two one-task jobs are
// rotated onto two victims and the test claims in worker 1's place: the
// nearer victim's morsel comes first, whichever job was submitted first.
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
	// Runnable one-task jobs, so a worker released after a failed check
	// can finish whichever the test did not claim.
	oneTask := func(e *Engine, rot int) *rtJob {
		j := &rtJob{ntasks: 1, fn: func(int, *Scratch) {}, e: e, rot: rot}
		j.done.Add(1)
		return j
	}
	nearJob, farJob := oneTask(near, (thief+2)%4), oneTask(far, (thief+3)%4)
	rt.submit(farJob) // submitted first, three steps round the ring
	rt.submit(nearJob)
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

// TestSchedRoundRobinAcrossJobs pins the owner's fairness: a worker's
// local claims go round-robin over the active jobs in submission order,
// and a job retiring with its last task does not make the next claim
// skip the job after it.
func TestSchedRoundRobinAcrossJobs(t *testing.T) {
	rt := &Runtime{workers: 1, rr: make([]int, 1)}
	rt.work = sync.NewCond(&rt.mu)
	e := &Engine{}
	a, b, c := &rtJob{ntasks: 1, e: e}, &rtJob{ntasks: 2, e: e}, &rtJob{ntasks: 2, e: e}
	for _, j := range []*rtJob{a, b, c} {
		rt.submit(j)
	}
	for i, want := range []*rtJob{a, b, c, b, c} {
		if j, _, dist, _ := rt.nextTask(0); j != want || dist != -1 {
			t.Fatalf("claim %d: job %p at distance %d, want %p locally", i, j, dist, want)
		}
	}
}

// TestRuntimeClaimCycleAllocatesOnlyJobs pins that the runtime stores
// no task: a steady-state submit → claim cycle (local claims, and steals
// of the class of a worker that never claims) allocates each job's
// record and its claim cursors and nothing else — the active list and
// the round-robin cursors keep their capacity.
func TestRuntimeClaimCycleAllocatesOnlyJobs(t *testing.T) {
	const workers, jobs, ntasks = 3, 3, 64
	rt := &Runtime{workers: workers, rr: make([]int, workers)}
	rt.work = sync.NewCond(&rt.mu)
	e := &Engine{}
	cycle := func() {
		for k := range jobs {
			rt.submit(&rtJob{ntasks: ntasks, e: e, rot: k})
		}
		// Workers 0 and 1 claim alternately; worker 2's classes are
		// stolen.
		for k := range jobs * ntasks {
			if _, _, _, ok := rt.nextTask(k % 2); !ok {
				t.Fatal("runtime closed")
			}
		}
		if len(rt.active) != 0 {
			t.Fatalf("%d jobs still active after every task was claimed", len(rt.active))
		}
	}
	cycle() // grows the active list
	if allocs := testing.AllocsPerRun(20, cycle); allocs > 2*jobs {
		t.Fatalf("submit → claim allocates %v times per cycle, want at most %d (each job's record and cursors)", allocs, 2*jobs)
	}
	if st := e.sched.stats(); st.Stolen == 0 || st.LocalHits == 0 {
		t.Fatalf("cycle claimed %v, want local hits and steals", st)
	}
}
