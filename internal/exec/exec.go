// Package exec is a morsel-driven parallel execution engine for the
// radix-declustered project-join, in the spirit of Leis et al.'s
// morsel-driven parallelism: a fixed set of long-lived workers pulls
// small units of work ("morsels" — here, radix partitions or
// contiguous tuple ranges), each homed on one worker by rotation, and
// steals when idle, so load imbalance from skewed partitions
// self-corrects without a central scheduler.
//
// The paper's key property makes its operators embarrassingly
// parallel: after Radix-Cluster, every partition of the Partitioned
// Hash-Join and every cache-sized region of the post-projection
// (clustered Positional-Join fetch, Radix-Decluster insertion window)
// is an independent unit of work whose random access is confined to a
// private cache-sized region. Each operator here is one set of morsel
// bodies over exactly that decomposition, built from the substrate's
// kernels in internal/radix, internal/join, internal/posjoin and
// internal/core, and its output does not depend on how many morsels
// run or where:
//
//   - Radix-Cluster (cluster.go): radix.Cluster, the one pass driver —
//     a chunked count-then-scatter first pass whose per-chunk
//     histograms give every chunk disjoint insertion cursors, chunks
//     being contiguous input ranges, so each cluster receives its
//     tuples in global input order: the stable clustering.
//   - Partitioned Hash-Join (join.go): partitions are morsels;
//     per-partition match lists are stitched into the join-index in
//     partition order.
//   - Partition-wise post-projection (project.go): clustered fetches
//     and Radix-Decluster run per cluster group, each group scattering
//     only into result positions owned by its clusters (the cluster
//     contents partition the result permutation, so writes are
//     disjoint) within its share of the insertion window.
//
// Beyond the operators, the package defines the Phase/Pipeline layer
// every project-join strategy executes on (pipeline.go). The contract:
// a strategy is assembled as an ordered list of Phases; phases run
// strictly in order, so phase bodies may close over shared variables
// without synchronisation; each phase body receives the run's single
// Engine, and all intra-phase data parallelism must go through the
// Engine (operator methods or Engine.ForRanges) — no strategy owns
// goroutines of its own. Each Phase carries a PhaseKind that buckets
// its elapsed time into the paper's phase breakdown; Pipeline.Execute
// returns the accumulated Timings. Parallel and serial assemblies of
// the same pipeline produce byte-identical results; worker count
// changes wall-clock only.
//
// Morsel kinds: contiguous tuple/record ranges (scans, stitches,
// fetches, probe chunks of the naive rows join, Radix-Cluster and Jive
// left-phase chunks), radix partitions (hash-join partition pairs,
// fetches over join images, Radix-Cluster refinement), and cluster
// groups (clustered fetches, Radix-Decluster insertion regions, Jive
// right-phase clusters).
//
// Every goroutine that executes a morsel belongs to a Runtime
// (runtime.go): one worker set multiplexed over every concurrent
// query's pipeline with fair, query-tagged morsel scheduling and
// admission control. An Engine (NewEngine) is one query's handle and
// owns no goroutines. There are two execution modes: the serial engine
// (0 workers: no runtime) and a lease on a runtime with a nominal
// worker count; a lone query is a Runtime serving one lease. Both run
// the same morsel bodies: every operator does its work through
// Engine.run, whose one serial test (Engine.serial) sends the serial
// engine, a nominal-1 lease and an input below MinParallelN down the
// inline path — the bodies in task order on the caller's goroutine, one
// morsel per chunked range — so the serial engine is the one-worker
// case of the runtime code. Operator output bytes are a function of
// the engine's nominal worker count only — never of the runtime's size
// or of which worker ran a morsel — so both modes of the same pipeline
// are byte-identical. Both modes take their buffers the same way: every
// engine holds a lease on the process arena (sharedArena), its
// operators draw every intermediate from it and every result array
// from its kit (Engine.Own), and the strategies hand each intermediate
// back right after its last reader (Return).
//
// Scratch buffers keep the hot loops allocation-free: each worker's
// grow on the heap, the engine's own inline one on the query's lease.
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
	"radixdecluster/internal/radix"
)

// sharedArena is the process-wide execution-memory pool (mempool):
// every query's transient buffers — scatter targets, match lists,
// histograms, table scratch — are leased from it, serial and runtime
// queries alike, and recycled after their last reader or at query end,
// so a warmed-up executor's steady state stays off the GC.
var sharedArena = mempool.New(0)

// Engine is one query's handle on the execution layer, shared by every
// phase of its pipeline: the nominal parallelism, the admission slot
// and buffer lease on a Runtime, the query's counters, and its
// trace/label context. It owns no goroutines; run submits jobs to the
// runtime, which multiplexes all concurrent queries over one worker set
// with fair, query-tagged morsel scheduling and admission control.
//
// workers is the query's NOMINAL parallelism: morsel granularity
// (morsels, chunksFor) and per-worker cache-budget divisions derive
// from it, so an operator's output bytes are a function of the nominal
// count only — never of the runtime's size or of which workers execute
// the morsels. 0 is the serial paper engine: no runtime, no admission,
// no goroutine — the same morsel bodies, run inline (run) — and, like
// any query, a lease on the process arena for its buffers. Close
// releases the admission slot and the query's buffers; a closed Engine
// must not run again.
type Engine struct {
	workers int
	rt      *Runtime // nil on the serial engine
	rot     int      // task t of every job homes on runtime worker (t + rot) mod rt.workers
	closed  atomic.Bool

	mu       sync.Mutex
	admitted bool           // holds an admission slot; taken lazily on first run
	memLs    *mempool.Lease // per-query buffer lease; opened on first use
	errbuf   []error        // reusable operator error slots (phases are sequential)
	own      Scratch        // run's inline scratch, on the query's lease

	// The query's counters, written by the runtime's claim accounting
	// and by morsel bodies: queued accumulates the submission-to-first-
	// morsel waits of its jobs (nanoseconds) — the morsel-queue
	// component of the pipeline's queueing time.
	queued atomic.Int64
	sched  schedCounters
	comp   compCounters // decode-pass counters (compressed.go)
	// booked is the running phase's wall time an operator attributed to
	// other kinds (attribute); Pipeline.Execute reads and clears it.
	booked [NumPhaseKinds]time.Duration

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
// what a nominal 8 computes anywhere. The engine draws the next
// rotation from the runtime, so successive queries home their first
// morsels on successive workers. Admission is acquired on first use
// (or explicitly by a pipeline's Execute) and released by Close.
func NewEngine(rt *Runtime, workers int) *Engine {
	if workers <= 0 {
		return &Engine{}
	}
	return &Engine{workers: workers, rt: rt, rot: int(rt.rotSeq.Add(1) % uint64(rt.workers))}
}

// Workers returns the nominal worker count (the per-query parallelism,
// not the runtime's size), 0 for the serial engine.
func (e *Engine) Workers() int { return e.workers }

// serial is the one serial predicate, asked by run and morsels only:
// an n-item operator runs its morsel bodies inline, as one morsel per
// chunked range, on the serial engine, on a nominal-1 lease, and below
// the cardinality where fan-out overhead exceeds the win.
func (e *Engine) serial(n int) bool { return e.workers <= 1 || n < MinParallelN }

// Close returns the query's buffers to the arena and releases the
// admission slot (the serial engine has none).
func (e *Engine) Close() {
	if !e.closed.CompareAndSwap(false, true) {
		return
	}
	e.mu.Lock()
	ml, admitted := e.memLs, e.admitted
	e.memLs, e.admitted = nil, false
	e.mu.Unlock()
	e.own = Scratch{} // its buffers go back with the lease
	if ml != nil {
		// The one-call release: every transient buffer the query
		// checked out goes back to the arena together.
		ml.Release()
	}
	if admitted {
		e.rt.release()
	}
}

// mem returns the query's buffer lease, opening it on first use on the
// process arena, sharedArena, which serves every engine, serial or on
// a runtime. Nil once the engine is closed: every
// acquisition helper treats a nil lease as "allocate from the GC".
func (e *Engine) mem() *mempool.Lease {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed.Load() {
		return nil
	}
	if e.memLs == nil {
		e.memLs = sharedArena.NewLease()
	}
	return e.memLs
}

// Return hands intermediates the engine's operators leased back to the
// query's kit as soon as their last reader is done, instead of at Close
// (mempool.Return): a pipeline's kit then holds its peak live set, not
// the sum of its intermediates. The caller must hold no other reference
// into them. Slices that are not leased intermediates — inputs, result
// arrays, shared images — are left alone.
func Return[T any](e *Engine, bufs ...[]T) {
	e.mu.Lock()
	ml := e.memLs
	e.mu.Unlock()
	mempool.Return(ml, bufs...)
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
// outlives the pipeline. It is drawn from the query's kit off the
// lease's ledger (mempool.Own), always Go memory, so it survives Close
// and whoever ends up holding the result hands it back to Home with
// mempool.Recycle — or drops it to the GC. Every slot must be written.
func (e *Engine) Own(n int) []int32 { return mempool.Own[int32](e.mem(), n) }

// Home returns the kit Own draws result arrays from and Recycle
// returns them to. Ask before Close (nil after it).
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
	e.rt.metrics.admissionWait.Observe(d.Seconds())
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

// run is the one way an operator does work: fn(task, s) for every
// task in [0, ntasks) of an n-item operator. When serial(n) holds — the
// serial engine, a nominal-1 lease, n below MinParallelN — the tasks
// run inline on the calling goroutine, in task order, on the engine's
// own Scratch, whose buffers are leased from the query's arena: no
// runtime, no admission, no scheduler counter. Otherwise they run as
// morsels on the runtime (submit). fn must not call run on the same
// engine.
func (e *Engine) run(n, ntasks int, fn func(task int, s *Scratch)) {
	if ntasks <= 0 {
		return
	}
	if e.serial(n) {
		if e.own.ml == nil {
			e.own.ml = e.mem()
		}
		for t := range ntasks {
			fn(t, &e.own)
		}
		return
	}
	e.submit(ntasks, fn)
}

// submit runs fn(task, scratch) for every task in [0, ntasks) as one
// runtime job and returns when all tasks have finished. Task t homes on
// runtime worker (t + e.rot) mod workers, so every job of the engine
// that decomposes the same domain into tasks the same way lands task t
// on the same worker, phase after phase. The job carries the engine's
// observability context: trace buffer, pprof labels, current phase
// name.
func (e *Engine) submit(ntasks int, fn func(task int, s *Scratch)) {
	if ntasks <= 0 {
		return
	}
	e.admit()
	j := &rtJob{ntasks: ntasks, fn: fn, rot: e.rot, enq: time.Now(), e: e,
		trace: e.trace, labels: e.labelsCtx, phase: e.phase}
	j.done.Add(ntasks)
	e.rt.submit(j)
	j.done.Wait()
}

// Scratch holds a worker's reusable buffers so that hot loops stay
// allocation-free across morsels. Buffers grow monotonically and are
// reused for the lifetime of the worker. The engine's own Scratch, on
// which run executes inline, grows on the query's lease instead (ml),
// handing an outgrown buffer back, so an inline run draws its scratch
// from the arena like every other transient.
type Scratch struct {
	worker      int            // the runtime worker owning it (0 on the engine's own)
	ml          *mempool.Lease // set on the engine's own Scratch only
	ints        []int
	vals        []int32           // a partition's decoded image range (ProjectImages)
	tjoin       join.TableScratch // partition hash-table build scratch
	first, next []int32           // tjoin's arrays, when leased
	part        join.Index        // the match list a probe morsel fills
	cont        continuation      // where its last carved list ended
}

// grow returns buf resliced to n when it holds n, else a dirty n-slice:
// leased on ml, with buf handed back, or made when ml is nil.
func grow[T any](ml *mempool.Lease, buf []T, n int) []T {
	if cap(buf) >= n {
		return buf[:n]
	}
	if ml == nil {
		return make([]T, n)
	}
	mempool.Return(ml, buf)
	return mempool.Slice[T](ml, n)
}

// Ints returns a dirty []int of length n, reusing the scratch's buffer
// when capacity allows; the caller writes every slot it reads.
func (s *Scratch) Ints(n int) []int {
	s.ints = grow(s.ml, s.ints, n)
	return s.ints
}

// Int32s returns a dirty []int32 of length n, reusing the scratch's
// buffer when capacity allows: like join.TableScratch it grows to the
// largest request seen and never shrinks, and the caller writes every
// slot it reads.
func (s *Scratch) Int32s(n int) []int32 {
	s.vals = grow(s.ml, s.vals, n)
	return s.vals
}

// table returns the hash-table scratch for a partition of n tuples. A
// worker's grows inside the probe kernels; the engine's own is sized
// here, on the lease, so no probe allocates.
func (s *Scratch) table(n int) *join.TableScratch {
	if s.ml != nil && (cap(s.next) < n || cap(s.first) < join.TableBuckets(n)) {
		s.first, s.next = grow(s.ml, s.first, join.TableBuckets(n)), grow(s.ml, s.next, n)
		s.tjoin = join.TableScratchOver(s.first, s.next)
	}
	return &s.tjoin
}

// Range is a half-open interval of task indices or tuple positions.
type Range struct {
	Lo, Hi int
}

// Len returns the number of items in the range.
func (r Range) Len() int { return r.Hi - r.Lo }

// splitRange tiles [0, n) with len(out) contiguous near-equal ranges
// (0 < len(out) <= n), writing every slot: radix.Chunk's tiling, so a
// scan's chunk k and a clustering's chunk k are the same range, task k
// of their jobs, homed on the same worker.
func splitRange(out []Range, n int) {
	for i := range out {
		out[i].Lo, out[i].Hi = radix.Chunk(n, len(out), i)
	}
}

// morselsPerWorker controls how many morsels Run-based operators carve
// per worker: enough that a slow morsel (e.g. a skewed partition)
// leaves the other workers productive, few enough that per-morsel
// bookkeeping stays negligible.
const morselsPerWorker = 8

// morsels is how many morsels an n-item operator is cut into: one when
// serial(n) holds — run then executes it inline — else morselsPerWorker
// per nominal worker, at most n.
func (e *Engine) morsels(n int) int {
	if e.serial(n) {
		return 1
	}
	return min(e.workers*morselsPerWorker, n)
}

// chunksFor picks the chunking of an n-item range for this engine:
// morsels(n) chunks. The slice is leased from the query's arena
// checkout (Range is pointer-free) and fully written here, so recycled
// dirt never shows.
func (e *Engine) chunksFor(n int) []Range {
	if n <= 0 {
		return nil
	}
	out := mempool.Slice[Range](e.mem(), e.morsels(n))
	splitRange(out, n)
	return out
}

// firstErr returns the first non-nil error in task order, so an
// operator reports the error an inline run, in task order, meets first.
func firstErr(errs []error) error {
	for _, e := range errs {
		if e != nil {
			return e
		}
	}
	return nil
}
