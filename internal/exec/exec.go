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
// Engine, which dispatches every substrate operator either to the
// serial paper code (Workers() == 0) or to the lease-backed parallel
// operators here, and all intra-phase data parallelism must go
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
// admission control. A Pool (Runtime.NewPool) is one query's lease on
// that set and owns no goroutines; a lone query is a Runtime serving
// one lease. There are two execution modes: the serial engine (no
// pool, the paper's code, the tests' oracle) and a runtime lease. With
// Options.ShareScans the runtime additionally coalesces concurrent
// pipelines' same-source scans into one cooperative circular pass
// (scanshare.go). Operator output bytes are a function of the pool's
// nominal worker count only — never of the runtime's size, of which
// worker ran a morsel, or of scan sharing — so both modes of the same
// pipeline are byte-identical.
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

// Pool is the handle every parallel operator runs on: one query's
// lease on a Runtime (Runtime.NewPool). It owns no goroutines; Run
// submits jobs to the runtime, which multiplexes all concurrent
// queries over one worker set with fair, query-tagged morsel
// scheduling and admission control.
//
// workers is the query's NOMINAL parallelism: morsel granularity
// (chunksFor) and per-worker cache-budget divisions derive from it, so
// an operator's output bytes are a function of the nominal count only —
// never of the runtime's size or of which workers execute the morsels.
// Close releases the admission slot and the query's buffers; a closed
// Pool must not Run again.
type Pool struct {
	workers int
	closed  atomic.Bool

	rt      *Runtime
	affSeed uint64 // placement-hash salt
	mu      sync.Mutex
	ls      *lease         // admitted lease; acquired lazily on first Run
	memLs   *mempool.Lease // per-query buffer lease; opened on first use
	errbuf  []error        // reusable operator error slots (phases are sequential)

	sharedHits atomic.Int64 // scans served by another pipeline's pass

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

// Workers returns the pool's nominal worker count (the per-query
// parallelism, not the runtime's size).
func (p *Pool) Workers() int { return p.workers }

// Close returns the query's buffers to the arena and releases the
// admission slot.
func (p *Pool) Close() {
	if !p.closed.CompareAndSwap(false, true) {
		return
	}
	p.mu.Lock()
	ml, ls := p.memLs, p.ls
	p.memLs, p.ls = nil, nil
	p.mu.Unlock()
	if ml != nil {
		// The one-call release: every transient buffer the query
		// checked out goes back to the arena together.
		ml.Release()
	}
	if ls != nil {
		p.rt.releaseLease()
	}
}

// Mem returns the pool's per-query buffer lease, opening it on first
// use. nil once the pool is closed — every acquisition helper treats a
// nil lease as "allocate from the GC".
func (p *Pool) Mem() *mempool.Lease {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed.Load() {
		return nil
	}
	if p.memLs == nil {
		p.memLs = p.rt.mem.NewLease()
	}
	return p.memLs
}

// memStats snapshots the query's lease accounting (zero when nothing
// was acquired).
func (p *Pool) memStats() mempool.LeaseStats {
	p.mu.Lock()
	ml := p.memLs
	p.mu.Unlock()
	if ml == nil {
		return mempool.LeaseStats{}
	}
	return ml.Stats()
}

// errSlots returns a zeroed n-slot error slice reused across the
// pool's operator invocations. Safe because phase bodies and operator
// calls on one pool are strictly sequential (the Run contract forbids
// nesting); only the slice's slots are written concurrently, by
// disjoint tasks.
func (p *Pool) errSlots(n int) []error {
	if cap(p.errbuf) < n {
		p.errbuf = make([]error, n)
	}
	e := p.errbuf[:n]
	for i := range e {
		e[i] = nil
	}
	return e
}

// attach acquires the pool's runtime lease, blocking on admission
// control, and reports how long admission took.
func (p *Pool) attach() time.Duration {
	start := time.Now()
	p.lease()
	d := time.Since(start)
	if p.rt.metrics != nil {
		p.rt.metrics.admissionWait.Observe(d.Seconds())
	}
	return d
}

// setPhase records the pipeline's current phase name on the pool (and
// rebuilds the phase's pprof label set when the runtime labels
// morsels). Called by Pipeline.Execute between phases, on the same
// goroutine that submits jobs.
func (p *Pool) setPhase(name string) {
	p.phase = name
	p.labelsCtx = nil
	if p.rt.labels {
		tag := p.queryTag
		if tag == "" {
			tag = "query"
		}
		p.labelsCtx = pprof.WithLabels(context.Background(),
			pprof.Labels("query", tag, "phase", name))
	}
}

// curPhase returns the pipeline's current phase name.
func (p *Pool) curPhase() string { return p.phase }

// jobLabels returns the pprof label set jobs submitted in the current
// phase should run under (nil when labeling is off).
func (p *Pool) jobLabels() context.Context { return p.labelsCtx }

// lease returns the admitted lease, admitting on first use. A closed
// pool has given its slot back: admitting again would take one nobody
// releases.
func (p *Pool) lease() *lease {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed.Load() {
		panic("exec: Run on a closed Pool")
	}
	if p.ls == nil {
		p.ls = p.rt.admit()
	}
	return p.ls
}

// queueWait returns the accumulated morsel-queue wait of the pool's
// jobs so far.
func (p *Pool) queueWait() time.Duration {
	p.mu.Lock()
	ls := p.ls
	p.mu.Unlock()
	if ls == nil {
		return 0
	}
	return time.Duration(ls.queued.Load())
}

// sharedScanHits returns how many of this pool's declared scans
// attached to a pass another pipeline had already started.
func (p *Pool) sharedScanHits() int64 { return p.sharedHits.Load() }

// SetAffinitySeed replaces the pool's placement-hash salt. Strategies
// seed it from the query's base-data identity so concurrent queries
// over the same source home the same partitions on the same workers.
// Call before the first Run.
func (p *Pool) SetAffinitySeed(seed uint64) { p.affSeed = seed }

// schedStats returns the pool's scheduler counters.
func (p *Pool) schedStats() SchedStats {
	p.mu.Lock()
	ls := p.ls
	p.mu.Unlock()
	if ls == nil {
		return SchedStats{}
	}
	return ls.sched.stats()
}

// Run executes fn(worker, task, scratch) for every task in
// [0, ntasks), distributing tasks dynamically. Run returns when all
// tasks have finished. fn must not call Run on the same pool (a
// runtime job must not submit nested jobs from a morsel body). The
// worker index passed to fn is a runtime worker id — operators must
// treat it as a scratch key only, never as an index bounded by
// Workers(). Placement uses the task index as its own affinity key:
// jobs decomposing the same domain into the same task count land task
// t on the same worker every phase (see RunAff).
func (p *Pool) Run(ntasks int, fn func(worker, task int, s *Scratch)) {
	p.RunAff(ntasks, nil, fn)
}

// RunAff is Run with an explicit affinity mapping: aff(task) is the
// morsel's data-identity key (a radix partition id, a chunk index of
// the underlying item space), and tasks with equal keys are homed on
// the same runtime worker — across jobs, phases, and (under equal
// seeds) queries. A nil aff uses the task index.
func (p *Pool) RunAff(ntasks int, aff func(task int) uint64, fn func(worker, task int, s *Scratch)) {
	if ntasks <= 0 {
		return
	}
	p.lease().run(p, ntasks, p.affSeed, aff, fn)
}

// Scratch holds per-worker reusable buffers so that hot loops stay
// allocation-free across morsels. Buffers grow monotonically and are
// reused for the lifetime of the worker.
type Scratch struct {
	ints  []int
	dec   *decoder          // compressed-column scratch (compressed.go), lazy
	tjoin join.TableScratch // partition hash-table build scratch
	rows  []int32           // per-morsel row staging (pre-projection probes)
}

// Rows returns a length-0 []int32 with at least the given capacity,
// reused across the worker's morsels (contents appended then copied
// out each morsel).
func (s *Scratch) Rows(capHint int) []int32 {
	if cap(s.rows) < capHint {
		s.rows = make([]int32, 0, capHint)
	}
	return s.rows[:0]
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

// Chunks splits [0, n) into at most k contiguous near-equal ranges.
// The split is deterministic in (n, k).
func Chunks(n, k int) []Range {
	if n <= 0 {
		return nil
	}
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	out := make([]Range, k)
	base, rem := n/k, n%k
	lo := 0
	for i := range out {
		hi := lo + base
		if i < rem {
			hi++
		}
		out[i] = Range{Lo: lo, Hi: hi}
		lo = hi
	}
	return out
}

// morselsPerWorker controls how many morsels Run-based operators carve
// per worker: enough that a slow morsel (e.g. a skewed partition)
// leaves the other workers productive, few enough that per-morsel
// bookkeeping stays negligible.
const morselsPerWorker = 8

// chunksFor picks the chunking of an n-item range for this pool. The
// slice is leased from the query's arena checkout (Range is pointer-
// free) and fully written here, so recycled dirt never shows.
func (p *Pool) chunksFor(n int) []Range {
	if n <= 0 {
		return nil
	}
	k := p.workers * morselsPerWorker
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	out := mempool.Slice[Range](p.Mem(), k)
	base, rem := n/k, n%k
	lo := 0
	for i := range out {
		hi := lo + base
		if i < rem {
			hi++
		}
		out[i] = Range{Lo: lo, Hi: hi}
		lo = hi
	}
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
