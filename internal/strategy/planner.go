package strategy

// The planner. A query is planned once, by its strategy's plan step
// (PlanDSMPost ... PlanNSMPostJive), into one record — Plan — before a
// phase is listed; the assembly only reads the record, and the root
// package's PlanJoin asks the same step, so what it describes is what a
// run executes. Methods, radix bits and the insertion window follow
// from the paper's rules (§3.1, §4.1) and the hierarchy alone; the
// worker count is resolved by Config.decide — from the query, the
// hierarchy and the runtime's size, never from what else the runtime
// happens to be doing — and the representation follows from the methods
// (PlanDSMPost: compressed only over join images).
//
// Every parallel run executes on a runtime: Config.Runtime, or the
// process default (DefaultRuntime) when that is nil. The run functions
// resolve it before they plan, so a plan step only ever sees
// Config.Runtime — and a caller that only plans never creates the
// default.

import (
	"fmt"
	"runtime"
	"sync"

	"radixdecluster/internal/core"
	"radixdecluster/internal/costmodel"
	"radixdecluster/internal/exec"
	"radixdecluster/internal/mem"
	"radixdecluster/internal/radix"
)

var (
	defaultRuntimeOnce sync.Once
	defaultRuntime     *exec.Runtime
)

// DefaultRuntime returns the lazily created process-wide runtime:
// GOMAXPROCS workers and exec's default admission bound. Every parallel
// run whose Config.Runtime is nil executes on it, and the root package's
// DefaultRuntime wraps this same instance — a process has one default
// worker set however its queries reach the engine. It is never closed.
func DefaultRuntime() *exec.Runtime {
	defaultRuntimeOnce.Do(func() { defaultRuntime = exec.NewRuntimeOpts(exec.Options{}) })
	return defaultRuntime
}

// rt resolves the runtime a run plans against and executes on:
// Config.Runtime when set, the process default for any other parallel
// run, nil for a serial run (Parallelism 0 never creates the default).
func (c Config) rt() *exec.Runtime {
	if c.Runtime != nil || c.Parallelism == 0 {
		return c.Runtime
	}
	return DefaultRuntime()
}

// autoWorkers is what AutoParallelism resolves to: the runtime's size,
// capped by the machine (a query cannot be served by more workers than
// the runtime owns, nor run on more cores than the process has).
// Morsel-driven execution already shares the workers between queries at
// morsel granularity, so a per-query count has nothing further to decide.
func (c Config) autoWorkers() int {
	w := runtime.GOMAXPROCS(0)
	if c.Runtime != nil {
		w = min(w, c.Runtime.Workers())
	}
	return w
}

// Plan is the one record of a query's planner decisions: the plan step
// fills it, the assembly reads it, Result embeds it, and its String is
// the plan line the public API reports.
type Plan struct {
	// The per-side methods: u/s/c and u/d for DSM post-projection; p/p,
	// c/d and j/j name the other strategies' fixed ones.
	LargerMethod, SmallerMethod ProjMethod
	// JoinBits is B of the Partitioned Hash-Join clustering (0 = naive
	// hash join), LargerBits / SmallerBits B of the two projection
	// phases' join-index (re-)clusterings (SmallerBits is NSMPostJive's
	// fan-out), Window the Radix-Decluster insertion window in tuples.
	// Zero where the plan has no such phase.
	JoinBits, LargerBits, SmallerBits, Window int
	// Workers is the executor: 0 = serial paper mode, n >= 1 = the
	// morsel-driven parallel executor with a nominal n workers.
	Workers int
	// Compressed is the representation: true when the run's fetches
	// decode block-compressed join images partition by partition (a
	// DSM post-projection u/u plan over join images under
	// Config.Compress).
	Compressed bool
}

// Methods is the per-side method pair as the plan line prints it
// ("u/u", "c/d", "p/p", "j/j").
func (p Plan) Methods() string {
	letter := func(m ProjMethod) byte {
		if m == Auto {
			return '-'
		}
		return byte(m)
	}
	return string([]byte{letter(p.LargerMethod), '/', letter(p.SmallerMethod)})
}

func (p Plan) String() string {
	s := fmt.Sprintf("joinbits=%d largerbits=%d smallerbits=%d window=%d methods=%s workers=%d",
		p.JoinBits, p.LargerBits, p.SmallerBits, p.Window, p.Methods(), p.Workers)
	if p.Compressed {
		s += " compressed=true"
	}
	return s
}

// CostFn is a strategy's modeled cost for one query's shape: its serial
// Appendix-A formula on model m. PlanJoin evaluates it for its estimate;
// no planner decision reads it.
type CostFn func(m costmodel.Model) costmodel.Cost

// decide completes a plan with its worker count, the only reader of
// Config.Parallelism. An explicit
// worker count is taken as-is, 0 stays on the serial paper path and
// AutoParallelism is autoWorkers (a cap of 1 stays serial). A joinInput
// (total join input cardinality) below the executor's serial-fallback
// threshold is planned serial: every operator would run its morsels
// inline anyway, so the query never enters runtime admission and the
// plan says Workers = 0.
func (c Config) decide(p *Plan, joinInput int) {
	p.Workers = max(c.Parallelism, 0)
	if c.Parallelism == AutoParallelism {
		if w := c.autoWorkers(); w > 1 {
			p.Workers = w
		}
	}
	if joinInput < exec.MinParallelN {
		p.Workers = 0
	}
}

// pipeline opens the engine the plan selects on the run's (resolved)
// runtime.
func (c Config) pipeline(p Plan) *exec.Pipeline {
	pl := exec.NewPipeline(c.Runtime, p.Workers)
	if c.Trace != nil {
		pl.SetTrace(c.Trace)
	}
	if c.QueryTag != "" {
		pl.SetQueryTag(c.QueryTag)
	}
	return pl
}

// joinOpts is the Partitioned Hash-Join clustering for the planned B.
func joinOpts(bits int, h mem.Hierarchy) radix.Opts {
	return radix.Opts{Bits: bits, Passes: radix.SplitBits(bits, radix.MaxBitsPerPass(h))}
}

// clusterOpts is a join-index (re-)clustering on the planned B bits of
// the oid, ignoring the rest of the oid domain's bits (§3.1).
func clusterOpts(bits, baseN int) radix.Opts {
	return radix.Opts{Bits: bits, Ignore: max(0, mem.Log2Ceil(baseN)-bits)}
}

// declusterBits plans the re-clustering that feeds Radix-Decluster: B
// bits so one cluster's span in the projected base region fits the
// cache, clamped so that w = |W|/2^B stays at or above the paper's
// w = 32 guidance.
func declusterBits(baseN, tupleBytes, cacheBytes, window int) int {
	return min(radix.OptimalBits(baseN, tupleBytes, cacheBytes), core.MaxBitsForWindow(window))
}
