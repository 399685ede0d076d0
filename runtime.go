package radixdecluster

import (
	"fmt"
	"io"
	"runtime"
	"sync"

	"radixdecluster/internal/costmodel"
	"radixdecluster/internal/exec"
	"radixdecluster/internal/mempool"
	"radixdecluster/internal/strategy"
)

// RuntimeConfig configures a Runtime.
type RuntimeConfig struct {
	// Workers is the size of the shared worker pool. <= 0 selects
	// runtime.GOMAXPROCS(0) — one worker per schedulable core, the
	// most the machine can genuinely run in parallel no matter how
	// many queries are in flight.
	Workers int
	// MaxConcurrentQueries is the admission bound: at most this many
	// parallel queries execute at once, the rest wait in FIFO order.
	// <= 0 selects max(2, Workers) — enough to overlap one query's
	// serial residues and phase boundaries with another's execution,
	// no more than the workers can serve — lowered to what MemoryBudget
	// allows when that is set.
	MaxConcurrentQueries int
	// Deprecated: ShareScans is ignored (cooperative scan sharing was
	// removed); it stays only because benchmark/benchmark_test.go sets it.
	ShareScans bool
	// Hier is the runtime's description of the machine (zero value: the
	// paper's Pentium 4, like every other planning default, and what the
	// serving binaries run with). Its declared levels drive the adaptive
	// admission derivation, and every query on this runtime that leaves
	// JoinQuery.Hier zero is sized with it — so admission and planning
	// read one description. Its DSM post-projection queries plan u/u over
	// join images whatever it says (JoinQuery.Hier).
	Hier Hierarchy
	// Metrics maintains the runtime's Prometheus-style metrics
	// registry, rendered by Runtime.WritePrometheus: a program serves
	// it on its own listener (cmd/joinserve on its HTTP front door,
	// cmd/joinrun -metricsaddr on a telemetry one). The series are
	// almost entirely pull-based — closures over counters the runtime
	// maintains regardless — so keeping them costs nothing on the
	// morsel hot path.
	Metrics bool
	// PprofLabels attaches pprof goroutine labels (query, phase,
	// worker) to every morsel a runtime worker executes, so CPU
	// profiles of a busy runtime break down by query and phase. Off by
	// default: labeling costs two label-set swaps per morsel.
	PprofLabels bool
	// MemoryBudget caps the bytes of idle recycled buffers the arena
	// retains (buffers beyond it are dropped). The arena is the
	// process's, shared by every runtime and by serial paper-mode
	// queries, so the limit bounds their kits too; the last runtime
	// built with a budget sets it. When
	// MaxConcurrentQueries is left to its default, adds a memory ceiling
	// to admission: at most MemoryBudget / costmodel.PerQueryMemEstimate
	// queries run at once, so the combined transient working sets stay
	// inside the budget. <= 0 keeps the arena's default retention limit
	// and imposes no admission ceiling.
	MemoryBudget int64
}

// SchedStats is the runtime scheduler's counter set: how many morsels
// ran on their home worker — the worker their partition is rotated
// onto, phase after phase — versus how many an idle worker stole (LocalHits,
// Stolen). Snapshot it
// before a run and Sub after to isolate that run from the runtime's
// lifetime counters. It is the scheduler's own record, declared where
// the morsels are counted.
type SchedStats = exec.SchedStats

// Runtime is the process-wide execution engine for concurrent
// ProjectJoin queries: one fixed worker pool multiplexed over every
// in-flight parallel query with fair, query-tagged morsel scheduling
// and admission control (a worker set per query would oversubscribe
// cores and silently halve every query's modeled cache and bandwidth
// budget as soon as two run at once).
//
// Every parallel ProjectJoin (JoinQuery.Parallelism != 0) executes on
// a Runtime: the one in JoinQuery.Runtime, or the lazily-initialized
// process default (DefaultRuntime) — a lone query is a runtime serving
// one query. Serial runs (Parallelism 0, the paper's mode) never
// involve a runtime, though they lease from the same process arena.
// Results are byte-identical across the two modes,
// serial and runtime, and on every runtime.
type Runtime struct {
	rt *exec.Runtime
	// hier is RuntimeConfig.Hier: what a query with a zero
	// JoinQuery.Hier on this runtime plans with.
	hier Hierarchy
}

// NewRuntime creates a runtime. Most programs never call this — the
// process default is created on first parallel query — but servers
// that want an explicit worker budget or admission bound (or an
// isolated runtime per tenant) configure their own and either set it
// on each JoinQuery or pass queries through it. Close releases the
// workers.
func NewRuntime(cfg RuntimeConfig) *Runtime {
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	admit := cfg.MaxConcurrentQueries
	if admit <= 0 {
		// exec's default, lowered by the memory ceiling (no bound
		// without a budget).
		admit = min(exec.DefaultMaxConcurrent(workers), costmodel.MemoryBound(cfg.MemoryBudget,
			costmodel.PerQueryMemEstimate(cfg.Hier.internal())))
	}
	return &Runtime{hier: cfg.Hier, rt: exec.NewRuntimeOpts(exec.Options{
		Workers: workers, MaxConcurrent: admit,
		Metrics: cfg.Metrics, PprofLabels: cfg.PprofLabels,
		MemoryBudget: cfg.MemoryBudget,
	})}
}

// WritePrometheus renders the runtime's metric series in the
// Prometheus text exposition format. It renders nothing unless
// RuntimeConfig.Metrics was set. This is the one exposition hook:
// programs mount it on their own listener (cmd/joinserve concatenates
// these series with its server-level ones on one /metrics endpoint;
// cmd/joinrun -metricsaddr hands the runtime to obs.Serve).
func (r *Runtime) WritePrometheus(w io.Writer) { r.rt.MetricsRegistry().WritePrometheus(w) }

// Hier returns the hierarchy the runtime was configured with
// (RuntimeConfig.Hier; the zero value reads as Pentium4()): what its
// queries plan with unless they carry their own JoinQuery.Hier.
func (r *Runtime) Hier() Hierarchy { return r.hier }

// Workers returns the shared pool size.
func (r *Runtime) Workers() int { return r.rt.Workers() }

// MaxConcurrentQueries returns the admission bound.
func (r *Runtime) MaxConcurrentQueries() int { return r.rt.MaxConcurrent() }

// ActiveQueries returns the number of parallel queries currently
// executing (admitted) on this runtime.
func (r *Runtime) ActiveQueries() int { return r.rt.ActiveQueries() }

// QueuedQueries returns the number of parallel queries waiting for
// admission.
func (r *Runtime) QueuedQueries() int { return r.rt.QueuedQueries() }

// MemPoolStats is the execution-memory arena's lifetime counter set:
// buffer requests served by a recycled buffer (Hits) or a fresh
// allocation (Misses), buffers dropped to the GC over the retention
// limit (Trims, see RuntimeConfig.MemoryBudget), idle bytes held for
// reuse (HeldBytes), and per-query leases currently open (Leases —
// non-zero between a query's first buffer request and its pipeline
// teardown, so a steady-state non-zero value indicates a leak).
type MemPoolStats = mempool.Stats

// MemPoolStats returns the arena counters accumulated across every
// query this runtime has executed.
func (r *Runtime) MemPoolStats() MemPoolStats { return r.rt.MemStats() }

// SchedStats returns the scheduler counters accumulated across every
// query this runtime has executed: morsels served by their home
// worker versus morsels an idle worker stole.
func (r *Runtime) SchedStats() SchedStats { return r.rt.SchedStats() }

// Close stops the runtime's workers. The runtime must be idle (no
// executing or admission-waiting queries). The process default runtime
// is never closed.
func (r *Runtime) Close() { r.rt.Close() }

var (
	defaultRuntimeOnce sync.Once
	defaultRuntime     *Runtime
)

// DefaultRuntime returns the lazily-initialized process-wide runtime:
// GOMAXPROCS workers and the default admission bound. Every parallel
// ProjectJoin whose JoinQuery.Runtime is nil runs on it, so all of a
// process's queries share one worker set by default. It wraps the
// engine's own default (strategy.DefaultRuntime), so code that reaches
// the engine below this API lands on the same workers.
func DefaultRuntime() *Runtime {
	defaultRuntimeOnce.Do(func() {
		defaultRuntime = &Runtime{rt: strategy.DefaultRuntime()}
	})
	return defaultRuntime
}

// ParseStrategy maps a strategy's String() name (e.g. from a flag or
// an API request) back to the constant. It accepts exactly the names
// String returns.
func ParseStrategy(s string) (Strategy, error) {
	for _, st := range []Strategy{
		AutoStrategy, DSMPostDecluster, DSMPre,
		NSMPreHash, NSMPrePhash, NSMPostDecluster, NSMPostJive,
	} {
		if st.String() == s {
			return st, nil
		}
	}
	return 0, fmt.Errorf("radixdecluster: unknown strategy %q", s)
}
