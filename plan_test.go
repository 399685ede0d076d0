package radixdecluster

import (
	"bufio"
	"fmt"
	"os"
	osexec "os/exec"
	"runtime"
	"strings"
	"testing"

	"radixdecluster/internal/costmodel"
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

// TestPlanGolden pins every plan line of the table to the string the
// five-layer planner family produced at the commit before it was
// folded into one step (testdata/plan_golden.txt), and PlanJoin to the
// executed plan.
func TestPlanGolden(t *testing.T) {
	ns := []int{4 << 10, 64 << 10, 1 << 20}
	if testing.Short() || raceEnabled {
		ns = ns[:2]
	}
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
	for _, c := range planCases(t, planTestRuntime(t), ns, []int{1, 4}, []int{0, 2}) {
		want, ok := golden[c.name]
		if !ok {
			t.Fatalf("%s: no golden plan line", c.name)
		}
		if got := requirePlanAgrees(t, c.name, c.q); got != want {
			t.Errorf("%s: plan moved:\n got  %s\n want %s", c.name, got, want)
		}
	}
}

// TestPlanJoinAgreesAuto checks agreement where the plan depends on
// the box (AutoParallelism weighs GOMAXPROCS and calibration, so there
// is no golden line), and that a join below the executor's
// serial-fallback threshold is planned serial, not merely run serial.
func TestPlanJoinAgreesAuto(t *testing.T) {
	rt := planTestRuntime(t)
	for _, c := range planCases(t, rt, []int{64 << 10}, []int{1}, []int{AutoParallelism}) {
		requirePlanAgrees(t, c.name, c.q)
	}

	small := planCases(t, rt, []int{1000}, []int{1}, []int{2})[0]
	plan := requirePlanAgrees(t, small.name, small.q)
	if !strings.Contains(plan, "workers=0") {
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

// TestPlanJoinLeavesDefaultRuntimeUncreated: planning a parallel query
// that names no runtime must not spin up the process default. Whether
// it exists is only observable in a process no other test has run a
// parallel query in, so the check re-executes the test binary for this
// test alone and counts goroutines (the default runtime starts its
// workers when created).
func TestPlanJoinLeavesDefaultRuntimeUncreated(t *testing.T) {
	const childEnv = "RADIX_PLANJOIN_CHILD"
	if os.Getenv(childEnv) == "" {
		cmd := osexec.Command(os.Args[0], "-test.run=^TestPlanJoinLeavesDefaultRuntimeUncreated$")
		cmd.Env = append(os.Environ(), childEnv+"=1")
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("child process: %v\n%s", err, out)
		}
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
