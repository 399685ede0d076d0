package strategy

// Planner glue between the strategies and the cost model's
// serial-vs-parallel decisions. Every strategy resolves
// Config.Parallelism the same way: an explicit worker count is taken
// as-is, AutoParallelism asks the matching costmodel.ChooseParallelism*
// formula — the modeled elapsed time across worker counts up to
// runtime.GOMAXPROCS (capped by the runtime's size), including the
// per-core cache-share shrinkage and the shared memory-bandwidth
// ceiling — and 0 stays on the serial paper path. Every parallel run
// executes on a runtime: Config.Runtime, or the process default
// (DefaultRuntime) when that is nil. The model is divided across the
// runtime's active queries: each of Q concurrent queries plans against
// a 1/Q cache share and a 1/Q share of the bus's saturation streams
// (costmodel.Model.ForQueries), so a busy runtime steers individual
// queries toward fewer workers. Inputs below the executor's
// serial-fallback threshold (exec.MinParallelN) never enter runtime
// admission: every operator would fall back to serial code anyway, so
// the run reports Workers = 0.

import (
	"math"
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
// GOMAXPROCS workers, admission derived from the default hierarchy's
// bus-stream budget (costmodel.AdaptiveAdmission). Every parallel run
// whose Config.Runtime is nil executes on it, and the root package's
// DefaultRuntime wraps this same instance — a process has one default
// worker set however its queries reach the engine. It is never closed.
func DefaultRuntime() *exec.Runtime {
	defaultRuntimeOnce.Do(func() {
		defaultRuntime = exec.NewRuntimeOpts(exec.Options{
			MaxConcurrent: costmodel.AdaptiveAdmission(mem.Pentium4(), runtime.GOMAXPROCS(0)),
		})
	})
	return defaultRuntime
}

// rt resolves the runtime this run plans against and executes on:
// Config.Runtime when set, the process default for any other parallel
// run, nil for a serial run (Parallelism 0 never creates the default).
func (c Config) rt() *exec.Runtime {
	if c.Runtime != nil || c.Parallelism == 0 {
		return c.Runtime
	}
	return DefaultRuntime()
}

// queries estimates how many queries will share the machine while
// this one runs: the runtime's currently admitted pipelines plus this
// query. A serial run without a runtime plans as the sole owner.
func (c Config) queries() int {
	rt := c.rt()
	if rt == nil {
		return 1
	}
	return rt.ActiveQueries() + 1
}

// affinityFeedbackMinTasks is how many morsels the runtime's
// scheduler counters must cover before the planner trusts the
// observed local-hit rate (early counters are all noise).
const affinityFeedbackMinTasks = 256

// model builds the cost model for one planning decision: the cache
// share and bus-stream budget divided across active queries, and the
// private-level share scaled by the runtime scheduler's OBSERVED warm
// rate (costmodel.Model.ForAffinity) — a runtime whose morsels keep
// landing on cores that never saw their partition plans with colder
// private caches, steering toward fewer workers. The signal is
// WarmHitRate, not LocalHitRate: sibling steals stay on the home's
// physical core where the private caches really are warm.
//
// The rate is the runtime's WINDOWED one (Runtime.SchedStatsWindow)
// when at least one window has completed: an EWMA over the last few
// 256-morsel intervals tracks regime shifts — admission mix changes,
// a steal-policy switch — that the lifetime average smears away.
// Before the first window completes, the lifetime rate (past the same
// warm-up floor) is the fallback.
func (c Config) model() costmodel.Model {
	m := costmodel.Model{H: c.hier()}.ForQueries(c.queries())
	if rt := c.rt(); rt != nil {
		// Clamp away from ForAffinity's 0-means-unknown sentinel: a
		// measured warm rate of exactly 0 is the WORST schedule and
		// must hit the cold floor, not read as "no data".
		if win := rt.SchedStatsWindow(); win.Windows > 0 {
			m = m.ForAffinity(math.Max(win.WarmHitRate(), 1e-3))
		} else if st := rt.SchedStats(); st.Tasks() >= affinityFeedbackMinTasks {
			m = m.ForAffinity(math.Max(st.WarmHitRate(), 1e-3))
		}
	}
	return m
}

// maxWorkers bounds the planner's worker-count search: the machine,
// and the runtime's size (a query cannot be served by more workers
// than the runtime owns).
func (c Config) maxWorkers() int {
	w := runtime.GOMAXPROCS(0)
	if rt := c.rt(); rt != nil && rt.Workers() < w {
		w = rt.Workers()
	}
	return w
}

// PlanParallelism runs the cost model's serial-vs-parallel decision
// for a DSM post-projection of the given shape. It returns the
// winning worker count (1 = stay serial).
func PlanParallelism(nJI, baseN, pi int, cfg Config) int {
	h := cfg.hier()
	c := h.LLC().Size
	bits := cfg.LargerBits
	if bits == 0 {
		bits = radix.OptimalBits(baseN, 4, c)
	}
	window := cfg.Window
	if window == 0 {
		window = core.PlanWindow(h, 4)
	}
	return costmodel.ChooseParallelism(cfg.model(), cfg.maxWorkers(),
		nJI, baseN, 4, max(1, bits), max(1, pi), window)
}

// planParallelismRows is the decision for the pre-projection
// strategies (DSM-pre and both NSM-pre variants): nL/nS input
// cardinalities, lw/sw wide-tuple widths in fields, bits the join
// partitioning fan-out (0 = naive hash join).
func planParallelismRows(nL, nS, lw, sw, bits int, cfg Config) int {
	return costmodel.ChooseParallelismRows(cfg.model(), cfg.maxWorkers(),
		nL, nS, lw*4, sw*4, bits)
}

// planParallelismNSMPost is the decision for NSM post-projection with
// the Radix algorithms.
func planParallelismNSMPost(nJI, baseN, omegaBytes, projBytes, bits, window int, cfg Config) int {
	return costmodel.ChooseParallelismNSMPost(cfg.model(), cfg.maxWorkers(),
		nJI, baseN, omegaBytes, projBytes, max(1, bits), window)
}

// planParallelismJive is the decision for NSM post-projection with
// Jive-Join.
func planParallelismJive(nJI, leftN, rightN, omegaBytes, projBytes, bits int, cfg Config) int {
	return costmodel.ChooseParallelismJive(cfg.model(), cfg.maxWorkers(),
		nJI, leftN, rightN, omegaBytes, projBytes, max(1, bits))
}

// pipelineFor resolves cfg.Parallelism into a pipeline for one
// strategy run. plan supplies the strategy's cost-model decision
// (consulted only for AutoParallelism); joinInput is the total join
// input cardinality gating the runtime lease against exec.MinParallelN;
// affinitySeed is the query's base-data identity (a ScanKey seed),
// salting the runtime's placement hash so concurrent queries over the
// same source home equal partitions on equal workers.
func (c Config) pipelineFor(joinInput int, affinitySeed uint64, plan func() int) *exec.Pipeline {
	w := 0
	switch {
	case c.Parallelism >= 1:
		w = c.Parallelism
	case c.Parallelism == AutoParallelism:
		if pw := plan(); pw > 1 {
			w = pw
		}
	}
	if w > 0 && joinInput < exec.MinParallelN {
		w = 0
	}
	pl := exec.NewPipeline(c.rt(), w)
	if affinitySeed != 0 {
		pl.SetAffinitySeed(affinitySeed)
	}
	if c.Trace != nil {
		pl.SetTrace(c.Trace)
	}
	if c.QueryTag != "" {
		pl.SetQueryTag(c.QueryTag)
	}
	return pl
}
