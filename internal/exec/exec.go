// Package exec is a morsel-driven parallel execution engine for the
// radix-declustered project-join, in the spirit of Leis et al.'s
// morsel-driven parallelism: a fixed set of long-lived workers pulls
// small units of work ("morsels" — here, radix partitions or
// contiguous tuple ranges) from per-worker deques and steals when
// idle, so load imbalance from skewed partitions self-corrects without
// a central scheduler.
//
// The paper's key property makes its operators embarrassingly
// parallel: after Radix-Cluster, every partition of the Partitioned
// Hash-Join and every cache-sized region of the post-projection
// (clustered Positional-Join fetch, Radix-Decluster insertion window)
// is an independent unit of work whose random access is confined to a
// private cache-sized region. The parallel operators in this package
// exploit exactly that decomposition and are constructed so that
// their output is byte-identical to the serial operators in
// internal/radix, internal/join, internal/posjoin and internal/core:
//
//   - Parallel Radix-Cluster (cluster.go): a chunked count-then-
//     scatter pass over the most-significant radix bits — per-chunk
//     histograms give every chunk disjoint insertion cursors, and
//     chunks are contiguous input ranges, so each cluster receives
//     its tuples in global input order, reproducing the serial
//     stable clustering exactly.
//   - Parallel Partitioned Hash-Join (join.go): partitions are
//     morsels; per-partition match lists are stitched into the
//     join-index in partition order.
//   - Partition-wise post-projection (project.go): clustered fetches
//     and Radix-Decluster run per cluster group, each worker
//     scattering only into result positions owned by its clusters
//     (the cluster contents partition the result permutation, so
//     writes are disjoint) within a per-worker insertion window.
//
// Beyond the operators, the package defines the Phase/Pipeline layer
// every project-join strategy executes on (pipeline.go). The contract:
// a strategy is assembled as an ordered list of Phases; phases run
// strictly in order, so phase bodies may close over shared variables
// without synchronisation; each phase body receives the run's single
// Engine, whose operators run either the serial paper code or the
// lease-backed parallel bodies here, and all intra-phase data
// parallelism must go
// through the Engine (operator methods or Engine.ForRanges) — no
// strategy owns goroutines of its own. Each Phase carries a PhaseKind
// that buckets its elapsed time into the paper's phase breakdown;
// Pipeline.Execute returns the accumulated Timings. Parallel and
// serial assemblies of the same pipeline produce byte-identical
// results; worker count changes wall-clock only.
//
// Morsel kinds: contiguous tuple/record ranges (scans, stitches,
// fetches, probe chunks of the naive rows join, Jive left-phase
// chunks), radix partitions (hash-join partition pairs), and cluster
// groups (clustered fetches, Radix-Decluster insertion regions, Jive
// right-phase clusters).
//
// Every goroutine that executes a morsel belongs to a Runtime
// (runtime.go): one worker set multiplexed over every concurrent
// query's pipeline with fair, query-tagged morsel scheduling and
// admission control. An Engine (NewEngine) is one query's handle and
// owns no goroutines. There are two execution modes: the serial engine
// (0 workers: no runtime, no lease, the paper's code, the tests'
// oracle) and a lease on a runtime with a nominal worker count; a lone
// query is a Runtime serving one lease. Every operator is one Engine
// method whose first test is the one serial-fallback predicate
// (Engine.serial), so the serial engine, a nominal-1 lease and an input
// below MinParallelN all run the paper's code. Operator output bytes
// are a function of the engine's nominal worker count only — never of
// the runtime's size or of which worker ran a morsel — so both modes of
// the same pipeline are byte-identical.
//
// Per-worker Scratch buffers keep the hot loops allocation-free.
package exec

import (
	"context"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"radixdecluster/internal/join"
	"radixdecluster/internal/mempool"
	"radixdecluster/internal/obs"
)

// sharedArena is the process-wide execution-memory pool (mempool):
// every query's transient buffers — scatter targets, match lists,
// histograms, table scratch — are leased from it and recycled at
// query end, so a warmed-up executor's steady state stays off the GC.
var sharedArena = mempool.New(0)

// Engine is one query's handle on the execution layer, shared by every
// phase of its pipeline: the nominal parallelism, the admission slot
// and buffer lease on a Runtime, the query's counters, and its
// trace/label context. It owns no goroutines; run submits jobs to the
// runtime, which multiplexes all concurrent queries over one worker set
// with fair, query-tagged morsel scheduling and admission control.
//
// workers is the query's NOMINAL parallelism: morsel granularity
// (chunksFor) and per-worker cache-budget divisions derive from it, so
// an operator's output bytes are a function of the nominal count only —
// never of the runtime's size or of which workers execute the morsels.
// 0 is the serial paper engine: no runtime, no lease, no goroutine,
// every operator the paper's code and every buffer a plain make — the
// oracle the equivalence tests compare against. Close releases the
// admission slot and the query's buffers; a closed Engine must not run
// again.
type Engine struct {
	workers int
	rt      *Runtime // nil on the serial engine
	affSeed uint64   // placement-hash salt
	closed  atomic.Bool

	mu       sync.Mutex
	admitted bool           // holds an admission slot; taken lazily on first run
	memLs    *mempool.Lease // per-query buffer lease; opened on first use
	errbuf   []error        // reusable operator error slots (phases are sequential)

	// The query's counters, written by the runtime's claim accounting
	// and by morsel bodies: queued accumulates the submission-to-first-
	// morsel waits of its jobs (nanoseconds) — the morsel-queue
	// component of the pipeline's queueing time.
	queued atomic.Int64
	sched  schedCounters
	comp   compCounters // decode-pass counters (compressed.go)

	// Observability context, set by the owning Pipeline before
	// execution and captured into each submitted job: the per-query
	// trace buffer (nil = off), the query tag for pprof labels, the
	// current phase name, and the phase's prebuilt pprof label set.
	// All written from the pipeline's Execute goroutine; jobs capture
	// them at submission, so workers never read the fields directly.
	trace     *obs.Trace
	queryTag  string
	phase     string
	labelsCtx context.Context
}

// NewEngine creates a query handle: workers <= 0 selects the serial
// paper engine (rt is not consulted), workers >= 1 a lease on rt with
// that nominal parallelism — a nominal 8 on a 2-worker runtime computes
// what a nominal 8 computes anywhere. The engine gets a fresh affinity
// seed (Pipeline.SetAffinitySeed replaces it) so distinct queries
// spread their homes differently. Admission is acquired on first use
// (or explicitly by a pipeline's Execute) and released by Close.
func NewEngine(rt *Runtime, workers int) *Engine {
	if workers <= 0 {
		return &Engine{}
	}
	return &Engine{workers: workers, rt: rt, affSeed: mix64(rt.seedSeq.Add(1))}
}

// Workers returns the nominal worker count (the per-query parallelism,
// not the runtime's size), 0 for the serial engine.
func (e *Engine) Workers() int { return e.workers }

// serial is the one serial-fallback predicate: an n-item operator runs
// the paper's code on the serial engine, on a nominal-1 lease, and
// below the cardinality where fan-out overhead exceeds the win.
func (e *Engine) serial(n int) bool { return e.workers <= 1 || n < MinParallelN }

// Close returns the query's buffers to the arena and releases the
// admission slot (both no-ops for the serial engine).
func (e *Engine) Close() {
	if !e.closed.CompareAndSwap(false, true) {
		return
	}
	e.mu.Lock()
	ml, admitted := e.memLs, e.admitted
	e.memLs, e.admitted = nil, false
	e.mu.Unlock()
	if ml != nil {
		// The one-call release: every transient buffer the query
		// checked out goes back to the arena together.
		ml.Release()
	}
	if admitted {
		e.rt.release()
	}
}

// mem returns the query's buffer lease, opening it on first use: nil
// on the serial engine and once the engine is closed — every
// acquisition helper treats a nil lease as "allocate from the GC".
func (e *Engine) mem() *mempool.Lease {
	if e.rt == nil {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed.Load() {
		return nil
	}
	if e.memLs == nil {
		e.memLs = e.rt.mem.NewLease()
	}
	return e.memLs
}

// memStats snapshots the query's lease accounting (zero when nothing
// was acquired).
func (e *Engine) memStats() mempool.LeaseStats {
	e.mu.Lock()
	ml := e.memLs
	e.mu.Unlock()
	if ml == nil {
		return mempool.LeaseStats{}
	}
	return ml.Stats()
}

// Own returns a dirty n-value result array: the one buffer kind that
// outlives the pipeline. On a runtime it is drawn from the query's kit
// off the lease's ledger (mempool.Own), so it survives Close and
// whoever ends up holding the result hands it back to Home with
// mempool.Recycle; on the serial engine it is a make. Every slot must
// be written.
func (e *Engine) Own(n int) []int32 { return mempool.Own[int32](e.mem(), n) }

// Home returns the kit Own draws result arrays from and Recycle
// returns them to — nil when they are GC-owned (serial engine). Ask
// before Close.
func (e *Engine) Home() *mempool.Kit {
	if l := e.mem(); l != nil {
		return l.Kit()
	}
	return nil
}

// errSlots returns a zeroed n-slot error slice reused across the
// engine's operator invocations. Safe because phase bodies and operator
// calls on one engine are strictly sequential (the run contract forbids
// nesting); only the slice's slots are written concurrently, by
// disjoint tasks.
func (e *Engine) errSlots(n int) []error {
	if cap(e.errbuf) < n {
		e.errbuf = make([]error, n)
	}
	errs := e.errbuf[:n]
	for i := range errs {
		errs[i] = nil
	}
	return errs
}

// admit takes the engine's admission slot on first use, blocking on
// the runtime's admission control. A closed engine has given its slot
// back: admitting again would take one nobody releases.
func (e *Engine) admit() {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed.Load() {
		panic("exec: Run on a closed Engine")
	}
	if !e.admitted {
		e.rt.admit()
		e.admitted = true
	}
}

// attach passes admission control ahead of the first phase and reports
// how long it took (zero on the serial engine, which has none).
func (e *Engine) attach() time.Duration {
	if e.rt == nil {
		return 0
	}
	start := time.Now()
	e.admit()
	d := time.Since(start)
	if e.rt.metrics != nil {
		e.rt.metrics.admissionWait.Observe(d.Seconds())
	}
	return d
}

// setPhase records the pipeline's current phase name on the engine (and
// rebuilds the phase's pprof label set when the runtime labels
// morsels). Called by Pipeline.Execute between phases, on the same
// goroutine that submits jobs.
func (e *Engine) setPhase(name string) {
	e.phase = name
	e.labelsCtx = nil
	if e.rt != nil && e.rt.labels {
		tag := e.queryTag
		if tag == "" {
			tag = "query"
		}
		e.labelsCtx = pprof.WithLabels(context.Background(),
			pprof.Labels("query", tag, "phase", name))
	}
}

// run executes fn(worker, task, scratch) for every task in
// [0, ntasks), distributing tasks dynamically, and returns when all
// tasks have finished. Callers test serial(n) first: the serial engine
// has no runtime to run on. fn must not call run on the same engine (a
// runtime job must not submit nested jobs from a morsel body). The
// worker index passed to fn is a runtime worker id — operators must
// treat it as a scratch key only, never as an index bounded by
// Workers(). Placement uses the task index as its own affinity key:
// jobs decomposing the same domain into the same task count land task
// t on the same worker every phase (see runAff).
func (e *Engine) run(ntasks int, fn func(worker, task int, s *Scratch)) {
	e.runAff(ntasks, nil, fn)
}

// runAff is run with an explicit affinity mapping: aff(task) is the
// morsel's data-identity key (a radix partition id, a chunk index of
// the underlying item space), and tasks with equal keys are homed on
// the same runtime worker — across jobs, phases, and (under equal
// seeds) queries. A nil aff uses the task index. The job carries the
// engine's observability context: trace buffer, pprof labels, current
// phase name.
func (e *Engine) runAff(ntasks int, aff func(task int) uint64, fn func(worker, task int, s *Scratch)) {
	if ntasks <= 0 {
		return
	}
	e.admit()
	j := &rtJob{ntasks: ntasks, fn: fn, aff: aff, seed: e.affSeed,
		done: make(chan struct{}), enq: time.Now(), e: e,
		trace: e.trace, labels: e.labelsCtx, phase: e.phase}
	j.pending.Store(int64(ntasks))
	e.rt.submit(j)
	<-j.done
}

// Scratch holds per-worker reusable buffers so that hot loops stay
// allocation-free across morsels. Buffers grow monotonically and are
// reused for the lifetime of the worker.
type Scratch struct {
	ints  []int
	tjoin join.TableScratch // partition hash-table build scratch
}

// Ints returns a zeroed []int of length n, reusing the worker's
// buffer when capacity allows.
func (s *Scratch) Ints(n int) []int {
	if cap(s.ints) < n {
		s.ints = make([]int, n)
	}
	s.ints = s.ints[:n]
	clear(s.ints)
	return s.ints
}

// Range is a half-open interval of task indices or tuple positions.
type Range struct {
	Lo, Hi int
}

// Len returns the number of items in the range.
func (r Range) Len() int { return r.Hi - r.Lo }

// splitRange tiles [0, n) with len(out) contiguous near-equal ranges
// (0 < len(out) <= n), writing every slot. The split is deterministic in
// (n, len(out)).
func splitRange(out []Range, n int) {
	base, rem := n/len(out), n%len(out)
	lo := 0
	for i := range out {
		hi := lo + base
		if i < rem {
			hi++
		}
		out[i] = Range{Lo: lo, Hi: hi}
		lo = hi
	}
}

// morselsPerWorker controls how many morsels Run-based operators carve
// per worker: enough that a slow morsel (e.g. a skewed partition)
// leaves the other workers productive, few enough that per-morsel
// bookkeeping stays negligible.
const morselsPerWorker = 8

// chunksFor picks the chunking of an n-item range for this engine. The
// slice is leased from the query's arena checkout (Range is pointer-
// free) and fully written here, so recycled dirt never shows.
func (e *Engine) chunksFor(n int) []Range {
	if n <= 0 {
		return nil
	}
	out := mempool.Slice[Range](e.mem(), min(max(e.workers*morselsPerWorker, 1), n))
	splitRange(out, n)
	return out
}

// firstErr returns the first non-nil error in task order, so parallel
// operators report the same error the serial operator would.
func firstErr(errs []error) error {
	for _, e := range errs {
		if e != nil {
			return e
		}
	}
	return nil
}
