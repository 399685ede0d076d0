package radixdecluster

import (
	"bufio"
	"fmt"
	"os"
	osexec "os/exec"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"radixdecluster/internal/costmodel"
	"radixdecluster/internal/exec"
	"radixdecluster/internal/mem"
	"radixdecluster/internal/workload"
)

// The planner is one step: what PlanJoin describes is what ProjectJoin
// executes. planCases enumerates the plan table — 6 strategies (DSM
// post-projection also with both methods pinned to u) × N × π ×
// compression × parallelism on an idle 2-worker runtime — over
// compressible relations, so Compression: on has encodings to use.

var planStrategies = []Strategy{DSMPostDecluster, DSMPre, NSMPreHash, NSMPrePhash, NSMPostDecluster, NSMPostJive}

type planCase struct {
	name string
	q    JoinQuery
}

func planCases(t *testing.T, rt *Runtime, ns []int, pis []int, pars []int) []planCase {
	t.Helper()
	var cases []planCase
	for _, n := range ns {
		for _, pi := range pis {
			larger, smaller := compressedRelations(t,
				workload.Params{N: n, Omega: pi + 1, HitRate: 1, SelLarger: 1, SelSmaller: 1, Seed: 71}, pi)
			for _, st := range planStrategies {
				methods := []ProjMethod{AutoMethod}
				if st == DSMPostDecluster {
					methods = append(methods, UnsortedMethod)
				}
				for _, m := range methods {
					for _, comp := range []Compression{CompressionOff, CompressionOn} {
						for _, par := range pars {
							mname := "auto"
							if m != AutoMethod {
								mname = "u/u"
							}
							cases = append(cases, planCase{
								name: fmt.Sprintf("%v/n=%d/pi=%d/%s/comp=%v/par=%d", st, n, pi, mname, comp, par),
								q: JoinQuery{
									Larger: larger, Smaller: smaller,
									LargerKey: "key", SmallerKey: "key",
									LargerProject: projNames(pi), SmallerProject: projNames(pi),
									Strategy: st, LargerMethod: m, SmallerMethod: m,
									Compression: comp, Parallelism: par, Runtime: rt,
								},
							})
						}
					}
				}
			}
		}
	}
	return cases
}

func planTestRuntime(t *testing.T) *Runtime {
	rt := NewRuntime(RuntimeConfig{Workers: 2})
	t.Cleanup(rt.Close)
	return rt
}

// requirePlanAgrees runs q and checks that PlanJoin described the plan
// the run executed; it returns the executed plan line.
func requirePlanAgrees(t *testing.T, name string, q JoinQuery) string {
	t.Helper()
	p, err := PlanJoin(q)
	if err != nil {
		t.Fatalf("%s: PlanJoin: %v", name, err)
	}
	res, err := ProjectJoin(q)
	if err != nil {
		t.Fatalf("%s: ProjectJoin: %v", name, err)
	}
	defer res.Release()
	if p.String() != res.Plan {
		t.Errorf("%s: PlanJoin and ProjectJoin disagree:\n planned  %s\n executed %s", name, p, res.Plan)
	}
	return res.Plan
}

// TestPlanGolden pins every plan line of the table to
// testdata/plan_golden.txt, and PlanJoin to the executed plan. Paper
// mode (par=0) and a runtime plan the same line except for DSM
// post-projection with Auto methods beyond the 512 KB L2, which the
// runtime plans u/u over join images and paper mode c/d.
func TestPlanGolden(t *testing.T) {
	// The table's 1 Mi-tuple runs fill the execution arena — one per
	// process, shared by every runtime — to its 256 MB retention limit,
	// and a saturated arena trims what later tests in the process
	// expect to find recycled (TestResultReleaseLifecycle counts
	// misses). So the table runs in a process of its own.
	if !inOwnProcess(t) {
		return
	}
	golden := planGolden(t)
	for _, c := range planCases(t, planTestRuntime(t), planGoldenNs(), []int{1, 4}, []int{0, 2}) {
		want, ok := golden[c.name]
		if !ok {
			t.Fatalf("%s: no golden plan line", c.name)
		}
		if got := requirePlanAgrees(t, c.name, c.q); got != want {
			t.Errorf("%s: plan moved:\n got  %s\n want %s", c.name, got, want)
		}
	}
}

// planGoldenNs is the table's cardinalities; the 1 Mi rows are skipped
// where a run of them costs minutes.
func planGoldenNs() []int {
	ns := []int{4 << 10, 64 << 10, 1 << 20}
	if testing.Short() || raceEnabled {
		ns = ns[:2]
	}
	return ns
}

// planGolden reads testdata/plan_golden.txt: case name → plan line.
func planGolden(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open("testdata/plan_golden.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	golden := map[string]string{}
	for sc := bufio.NewScanner(f); sc.Scan(); {
		name, plan, _ := strings.Cut(sc.Text(), "\t")
		golden[name] = plan
	}
	return golden
}

// autoWorkersLine is the workers= field an AutoParallelism plan must
// carry on rt: the runtime's size capped by GOMAXPROCS, and the serial
// engine's 0 when that is one.
func autoWorkersLine(rt *Runtime) string {
	w := min(runtime.GOMAXPROCS(0), rt.Workers())
	if w == 1 {
		w = 0
	}
	return fmt.Sprintf("workers=%d", w)
}

// hasField reports whether the plan line carries the space-delimited
// field.
func hasField(plan, field string) bool { return slices.Contains(strings.Fields(plan), field) }

// TestPlanJoinAgreesAuto checks agreement under AutoParallelism — every
// worker the runtime has, at most GOMAXPROCS — and that a join below the
// executor's serial-fallback threshold is planned serial, not merely run
// serial.
func TestPlanJoinAgreesAuto(t *testing.T) {
	rt := planTestRuntime(t)
	for _, c := range planCases(t, rt, []int{64 << 10}, []int{1}, []int{AutoParallelism}) {
		if plan := requirePlanAgrees(t, c.name, c.q); !hasField(plan, autoWorkersLine(rt)) {
			t.Errorf("%s: planned %q, want %s", c.name, plan, autoWorkersLine(rt))
		}
		// Plan.Parallelism is the same number whatever the query asks for.
		c.q.Parallelism = 0
		if p, err := PlanJoin(c.q); err != nil {
			t.Fatal(err)
		} else if want := min(runtime.GOMAXPROCS(0), rt.Workers()); p.Parallelism != want {
			t.Errorf("%s: Plan.Parallelism = %d, want %d", c.name, p.Parallelism, want)
		}
	}

	small := planCases(t, rt, []int{1000}, []int{1}, []int{2})[0]
	plan := requirePlanAgrees(t, small.name, small.q)
	if !hasField(plan, "workers=0") {
		t.Errorf("1000-tuple join ran as %q, want workers=0", plan)
	}
	small.q.Parallelism = AutoParallelism
	p, err := PlanJoin(small.q)
	if err != nil {
		t.Fatal(err)
	}
	if p.Parallelism != 1 {
		t.Errorf("1000-tuple join: Parallelism = %d, want 1 (below the parallel threshold)", p.Parallelism)
	}
}

// TestPlanIndependentOfRuntimeLoad: a plan is a function of the query,
// the hierarchy and the runtime's size — not of what else the runtime is
// doing when the query arrives. On a 4-worker runtime one AutoParallelism
// query is planned and run idle, then with three of the four admission
// slots held by parked queries (each also pins a worker, so the one left
// steals most of what it runs), then after at least 4 × 256 stolen
// morsels with the runtime idle again: the same plan line every time.
func TestPlanIndependentOfRuntimeLoad(t *testing.T) {
	rt := NewRuntime(RuntimeConfig{Workers: 4, MaxConcurrentQueries: 4})
	t.Cleanup(rt.Close)
	const pi = 2
	larger, smaller := workloadRelations(t,
		workload.Params{N: 64 << 10, Omega: pi + 1, HitRate: 1, SelLarger: 1, SelSmaller: 1, Seed: 76}, pi)
	q := JoinQuery{
		Larger: larger, Smaller: smaller, LargerKey: "key", SmallerKey: "key",
		LargerProject: projNames(pi), SmallerProject: projNames(pi),
		Parallelism: AutoParallelism, Runtime: rt,
	}
	idle := requirePlanAgrees(t, "idle", q)
	if !hasField(idle, autoWorkersLine(rt)) {
		t.Errorf("idle runtime: planned %q, want %s", idle, autoWorkersLine(rt))
	}

	// A parked query: admitted, one of its morsels blocked on a worker.
	const parked = 3
	started, free := make(chan struct{}), make(chan struct{})
	var unparkOnce sync.Once
	unpark := func() { unparkOnce.Do(func() { close(free) }) }
	// A failed check must unpark the queries too: the runtime's Close in
	// Cleanup waits for their workers.
	defer unpark()
	var wg sync.WaitGroup
	for range parked {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e := exec.NewEngine(rt.rt, 2)
			defer e.Close()
			e.ForRanges(exec.MinParallelN, func(r exec.Range) error {
				if r.Lo == 0 {
					started <- struct{}{}
					<-free
				}
				return nil
			})
		}()
	}
	for range parked {
		<-started
	}
	if got := rt.ActiveQueries(); got != parked {
		t.Fatalf("%d admission slots held, want %d", got, parked)
	}
	if loaded := requirePlanAgrees(t, "3 of 4 slots held", q); loaded != idle {
		t.Errorf("plan moved with the runtime's load:\n idle   %s\n loaded %s", idle, loaded)
	}
	// Forced onto the runtime whatever GOMAXPROCS is: the one free worker
	// is home to about a quarter of these morsels and steals the rest.
	forced := q
	forced.Parallelism = 4
	before := rt.SchedStats()
	for rounds := 0; rt.SchedStats().Sub(before).Stolen < 4*256; rounds++ {
		if rounds == 600 {
			t.Fatalf("600 queries stole only %v", rt.SchedStats().Sub(before))
		}
		res, err := ProjectJoin(forced)
		if err != nil {
			t.Fatal(err)
		}
		res.Release()
	}
	unpark()
	wg.Wait()
	if after := requirePlanAgrees(t, "after the steals", q); after != idle {
		t.Errorf("plan moved with the scheduler's history (%v):\n idle  %s\n after %s",
			rt.SchedStats().Sub(before), idle, after)
	}
}

// TestPlanJoinModeledMs pins the estimate for the benchmark harness's
// shape — DSM post-projection, N = 1 Mi, π = 4, serial — to the
// Appendix-A formula computed directly on the sole-owner model.
func TestPlanJoinModeledMs(t *testing.T) {
	const n, pi = 1 << 20, 4
	larger, smaller := workloadRelations(t,
		workload.Params{N: n, Omega: pi + 1, HitRate: 1, SelLarger: 1, SelSmaller: 1, Seed: 72}, pi)
	p, err := PlanJoin(JoinQuery{
		Larger: larger, Smaller: smaller, LargerKey: "key", SmallerKey: "key",
		LargerProject: projNames(pi), SmallerProject: projNames(pi),
	})
	if err != nil {
		t.Fatal(err)
	}
	m := costmodel.Model{H: mem.Pentium4()}
	want := m.Millis(costmodel.DSMPostDecluster(m, n, n, 4, p.LargerBits, pi, p.WindowTuples))
	if p.ModeledMs != want {
		t.Fatalf("ModeledMs = %v, want %v (DSMPostDecluster at bits=%d window=%d)", p.ModeledMs, want, p.LargerBits, p.WindowTuples)
	}
	if p.LargerBits != 4 || p.WindowTuples != 64<<10 {
		t.Fatalf("harness shape planned bits=%d window=%d, want 4 and 65536", p.LargerBits, p.WindowTuples)
	}
}

// inOwnProcess re-executes the test binary for the calling test alone,
// at the caller's GOMAXPROCS and -short, and reports whether the caller IS that
// child: a parent logs the child's output, fails if it failed, and gets
// false. For tests that observe or would disturb process-wide state.
func inOwnProcess(t *testing.T) bool {
	t.Helper()
	const childEnv = "RADIX_TEST_CHILD"
	if os.Getenv(childEnv) == t.Name() {
		return true
	}
	cmd := osexec.Command(os.Args[0], "-test.run=^"+t.Name()+"$", "-test.v",
		fmt.Sprintf("-test.cpu=%d", runtime.GOMAXPROCS(0)), fmt.Sprintf("-test.short=%v", testing.Short()))
	cmd.Env = append(os.Environ(), childEnv+"="+t.Name())
	out, err := cmd.CombinedOutput()
	t.Logf("in its own process:\n%s", out)
	if err != nil {
		t.Fatalf("child process: %v", err)
	}
	return false
}

// TestPlanJoinLeavesDefaultRuntimeUncreated: planning a parallel query
// that names no runtime must not spin up the process default. Whether
// it exists is only observable in a process no other test has run a
// parallel query in, so the check re-executes the test binary for this
// test alone and counts goroutines (the default runtime starts its
// workers when created).
func TestPlanJoinLeavesDefaultRuntimeUncreated(t *testing.T) {
	if !inOwnProcess(t) {
		return
	}
	larger, smaller := workloadRelations(t,
		workload.Params{N: 64 << 10, Omega: 2, HitRate: 1, SelLarger: 1, SelSmaller: 1, Seed: 73}, 1)
	q := JoinQuery{
		Larger: larger, Smaller: smaller, LargerKey: "key", SmallerKey: "key",
		LargerProject: projNames(1), SmallerProject: projNames(1),
		Parallelism: AutoParallelism,
	}
	before := runtime.NumGoroutine()
	for _, st := range planStrategies {
		q.Strategy = st
		if _, err := PlanJoin(q); err != nil {
			t.Fatal(err)
		}
	}
	if after := runtime.NumGoroutine(); after != before {
		t.Fatalf("PlanJoin started %d goroutines: the default runtime was created", after-before)
	}
	// The observable works: running the same query does create it.
	q.Parallelism = 2
	if _, err := ProjectJoin(q); err != nil {
		t.Fatal(err)
	}
	if after := runtime.NumGoroutine(); after <= before {
		t.Fatalf("a parallel run left the goroutine count at %d: the check above observes nothing", after)
	}
}

// TestPlannerPickVsForced holds the runtime's Auto plan to the
// measurement it follows: on a plain 2-worker runtime, N = 1 Mi raw at
// π = 2 and 4 and compressed at π = 2, two callers at once, the
// planner's own pick (u/u over join images) is timed against the four
// method pairs a caller can force (the non-u ones cluster per query and,
// in the compressed pass, run raw: only the u/u plans decode), in
// interleaved rounds after a warm-up round. Every median is logged on every run; that the pick is within
// 10 % of the best forced pair is asserted only under
// RADIX_ASSERT_SPEEDUP=1 (CI's -cpu 1,4 leg runs it alone), like every
// wall-clock contract here, and only when GOMAXPROCS does not exceed
// the CPU count (as TestParallelSpeedupMultiCore). It runs in a process
// of its own.
func TestPlannerPickVsForced(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("wall-clock comparison at 1 Mi tuples: not under -short or the race detector")
	}
	// The execution arena and its 256 MB retention limit are
	// process-wide: two 1 Mi-tuple queries at once, on top of what
	// earlier tests left in it, fill it, and from then on this test
	// would time trims and every later test that counts arena hits
	// would see misses.
	if !inOwnProcess(t) {
		return
	}
	const n, callers, rounds = 1 << 20, 2, 9
	rt := NewRuntime(RuntimeConfig{Workers: 2})
	t.Cleanup(rt.Close)
	// With more Ps than CPUs the runtime's workers and the callers share
	// fewer cores than they assume, and the medians measure the OS
	// scheduler: they are logged, not asserted.
	oversubscribed := runtime.GOMAXPROCS(0) > runtime.NumCPU()
	t.Logf("hierarchy: %v; cpus=%d gomaxprocs=%d", rt.Hier(), runtime.NumCPU(), runtime.GOMAXPROCS(0))
	variants := []struct {
		name   string
		lm, sm ProjMethod
	}{
		{"auto", AutoMethod, AutoMethod},
		{"u/u", UnsortedMethod, UnsortedMethod}, {"c/u", ClusterMethod, UnsortedMethod},
		{"u/d", UnsortedMethod, DeclusterMethod}, {"c/d", ClusterMethod, DeclusterMethod},
	}
	for _, pass := range []struct {
		pi   int
		comp Compression
	}{{2, CompressionOff}, {4, CompressionOff}, {2, CompressionOn}} {
		pi, relations := pass.pi, workloadRelations
		if pass.comp == CompressionOn {
			relations = compressedRelations
		}
		larger, smaller := relations(t,
			workload.Params{N: n, Omega: pi + 1, HitRate: 1, SelLarger: 1, SelSmaller: 1, Seed: 75}, pi)
		q := JoinQuery{
			Larger: larger, Smaller: smaller, LargerKey: "key", SmallerKey: "key",
			LargerProject: projNames(pi), SmallerProject: projNames(pi),
			Compression: pass.comp, Parallelism: 2, Runtime: rt,
		}
		samples := make([][]time.Duration, len(variants))
		var autoPlan string
		for round := 0; round <= rounds; round++ { // round 0 warms the arena
			for k := range variants {
				// Rotate the order so no variant always follows the same one.
				v := (k + round) % len(variants)
				vr := variants[v]
				q.LargerMethod, q.SmallerMethod = vr.lm, vr.sm
				took := make([]time.Duration, callers)
				var wg sync.WaitGroup
				for c := range took {
					wg.Add(1)
					go func() {
						defer wg.Done()
						t0 := time.Now()
						res, err := ProjectJoin(q)
						took[c] = time.Since(t0)
						if err != nil {
							t.Error(err)
							return
						}
						if v == 0 && c == 0 {
							autoPlan = res.Plan
						}
						res.Release()
					}()
				}
				wg.Wait()
				if round > 0 {
					samples[v] = append(samples[v], took...)
				}
			}
		}
		if t.Failed() {
			return
		}
		medians := make([]time.Duration, len(variants))
		line := ""
		for v, vr := range variants {
			slices.Sort(samples[v])
			medians[v] = samples[v][len(samples[v])/2]
			line += fmt.Sprintf(" %s=%v", vr.name, medians[v].Round(10*time.Microsecond))
		}
		best := slices.Min(medians[1:])
		t.Logf("pi=%d compression=%v, %d callers, median of %d:%s | auto plans %s", pi, pass.comp, callers, callers*rounds, line, autoPlan)
		if os.Getenv("RADIX_ASSERT_SPEEDUP") != "" && !oversubscribed && float64(medians[0]) > 1.10*float64(best) {
			t.Errorf("pi=%d compression=%v: the planner's pick (%s) runs %v, more than 10%% over the best forced pair's %v",
				pi, pass.comp, autoPlan, medians[0], best)
		}
	}
}
