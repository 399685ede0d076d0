package exec

// Runtime is the process-wide execution engine: one fixed set of
// workers multiplexed over every concurrently running project-join
// query — a worker set per query would oversubscribe cores and fight
// for the memory-bandwidth budget the cost model assumes each query
// owns exclusively. A lone query is the degenerate case: a Runtime
// serving one lease.
//
// Scheduling model:
//
//   - Each executing pipeline's Engine holds an admission slot: at
//     most maxConcurrent pipelines run at once, the rest wait in FIFO
//     order. The admitted count is exposed as ActiveQueries —
//     observability only; no plan reads it.
//   - An engine's run submits one job — the task body plus an affinity
//     key per morsel. Every morsel is placed on the local deque of its
//     HOME worker: hash(pipeline seed, affinity key) mod workers. The
//     key is the morsel's data identity — a radix partition id, a
//     scan-chunk index, or the task index as fallback — so successive
//     phases of one pipeline land the same partition on the same
//     worker, whose private caches still hold it; and pipelines
//     seeded from the same base data co-locate the same partition
//     across queries.
//   - A worker drains its own deque first (every claim there is a
//     LOCAL HIT), round-robin across the jobs present so concurrent
//     queries still interleave at morsel granularity, LIFO within a
//     job (the most recently placed morsel is the one whose input the
//     worker touched last). An idle worker STEALS: it walks the other
//     workers in ring order from itself (workers are goroutines the Go
//     scheduler migrates freely, so no worker is nearer than another)
//     and takes the victim's OLDEST job's oldest morsel (FIFO), the one
//     coldest in the victim's caches. Steals keep skew from idling the
//     machine; the counters (SchedStats) report local hits and stolen
//     morsels.
//   - Each job records the time from submission to its first claimed
//     morsel; pipelines surface the accumulated wait as per-phase
//     queueing time in Timings, separating "waiting for the shared
//     engine" from "executing" — exactly as under the old central
//     queue.
//
// The deques are guarded by one runtime mutex, not per-worker locks:
// morsels are thousands of tuples each, so claim frequency is low and
// the lock is never the bottleneck — what the per-worker deques buy is
// PLACEMENT (which worker services a partition, phase after phase), not
// lock granularity. Per-worker Scratch is allocated inside the worker
// goroutine.
//
// The byte-identical-output contract is untouched: a job's task
// decomposition (chunking, per-worker windows) is fixed by the
// submitting Engine's nominal worker count, and placement/stealing
// only select which worker executes a morsel, never what it computes.

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"runtime/pprof"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"radixdecluster/internal/hash"
	"radixdecluster/internal/mempool"
	"radixdecluster/internal/obs"
)

// SchedStats is the affinity scheduler's counter set: how many morsels
// ran on their home worker (where earlier phases of the same partition
// ran) versus how many an idle worker stole.
type SchedStats struct {
	// LocalHits counts morsels claimed by their home worker from its
	// own deque.
	LocalHits int64
	// Stolen counts morsels an idle worker took off another worker's
	// deque.
	Stolen int64
}

// Steals returns the total stolen morsels (the benchmark harness reads
// the count through this method).
func (s SchedStats) Steals() int64 { return s.Stolen }

// Tasks returns the total morsels scheduled.
func (s SchedStats) Tasks() int64 { return s.LocalHits + s.Stolen }

// LocalHitRate returns LocalHits / Tasks, 0 when nothing ran yet.
func (s SchedStats) LocalHitRate() float64 {
	if t := s.Tasks(); t > 0 {
		return float64(s.LocalHits) / float64(t)
	}
	return 0
}

// Sub returns the per-field difference s - prev: the counters
// attributable to the work between two snapshots of a cumulative
// counter set. This is how per-run numbers are recovered from the
// runtime's lifetime counters.
func (s SchedStats) Sub(prev SchedStats) SchedStats {
	return SchedStats{LocalHits: s.LocalHits - prev.LocalHits, Stolen: s.Stolen - prev.Stolen}
}

func (s SchedStats) String() string {
	return fmt.Sprintf("local=%d stolen=%d hitrate=%.2f", s.LocalHits, s.Stolen, s.LocalHitRate())
}

// schedCounters is the atomic accumulator behind SchedStats (one per
// runtime, one per query Engine).
type schedCounters struct {
	local, stolen atomic.Int64
}

// note records one claim: dist < 0 is a local hit, anything else a
// steal.
func (c *schedCounters) note(dist int) {
	if dist < 0 {
		c.local.Add(1)
	} else {
		c.stolen.Add(1)
	}
}

func (c *schedCounters) stats() SchedStats {
	return SchedStats{LocalHits: c.local.Load(), Stolen: c.stolen.Load()}
}

// Runtime owns the worker goroutines and the per-worker affinity
// deques. Create one with NewRuntimeOpts, hand it to pipelines with
// NewPipeline (or NewEngine for direct operator use), release the
// workers with Close.
type Runtime struct {
	workers       int
	maxConcurrent int
	labels        bool // pprof-label worker morsels (Options.PprofLabels)

	workerTags []string // worker id pre-rendered for pprof labels

	mu     sync.Mutex
	work   *sync.Cond // signals workers: placed morsels or shutdown
	dq     []wdeque   // per-worker local deques (guarded by mu)
	closed bool

	admitted int             // admission slots currently held
	waiters  []chan struct{} // FIFO admission queue

	seedSeq atomic.Uint64 // default affinity-seed source
	sched   schedCounters // process-wide scheduler counters

	// Compressed-execution totals, accumulated per pipeline at
	// Execute end (pipeline.go) — bus bytes avoided and decode wall
	// time across every query the runtime has served.
	compSaved       atomic.Int64
	compDecodeNanos atomic.Int64

	metrics *rtMetrics // Prometheus-style registry hooks (nil = off)

	// mem is the execution-memory arena this runtime's query leases
	// draw from: the process-wide sharedArena.
	mem *mempool.Pool

	// jrFree recycles jobRun nodes (and their task slices) across
	// submissions — the deque bookkeeping would otherwise allocate one
	// node per (job, worker) on every Run (guarded by mu).
	jrFree []*jobRun

	wg sync.WaitGroup
}

// rtJob is one run invocation of an Engine: the task body plus the
// affinity mapping that placed its morsels.
type rtJob struct {
	ntasks  int
	fn      func(worker, task int, s *Scratch)
	aff     func(task int) uint64 // nil: the task index is its own key
	seed    uint64
	pending atomic.Int64  // tasks not yet finished
	done    chan struct{} // closed by the worker finishing the last task
	enq     time.Time
	started bool    // first morsel claimed (guarded by Runtime.mu)
	e       *Engine // the submitting query: queue-wait and scheduler counters
	// Observability (both nil/zero on the default fast path): trace
	// receives one span per morsel, labels is the pprof label set
	// (query, phase) workers apply around morsel bodies, phase the
	// submitting pipeline's current phase name.
	trace  *obs.Trace
	labels context.Context
	phase  string
}

// home places one task: hash(seed, key) mod workers. Equal keys under
// equal seeds land on equal workers — across jobs, phases and queries.
func (j *rtJob) home(t, workers int) int {
	key := uint64(t)
	if j.aff != nil {
		key = j.aff(t)
	}
	return int(hash.Mix64(j.seed+key*0x9E3779B97F4A7C15) % uint64(workers))
}

// AffinitySeed is the placement-hash salt of a query's base data
// (Pipeline.SetAffinitySeed): the backing array its driving scan sweeps
// — a row-major relation's records, or a DSM side's key column — and
// its cardinality. Queries over the same source get the same salt, so
// their equal partition keys home on equal workers.
func AffinitySeed(data []int32, n int, rowMajor bool) uint64 {
	if len(data) == 0 || n <= 0 {
		return 0
	}
	kind := uint64(2)
	if rowMajor {
		kind = 1
	}
	return hash.Mix64(uint64(reflect.ValueOf(data).Pointer()) ^ uint64(n)<<8 ^ kind<<56)
}

// jobRun is the slice of one job's morsels homed on one worker: the
// owner pops the back (LIFO — warmest), thieves take the front (FIFO —
// coldest). Thieves advance head rather than re-slice tasks, so a
// recycled node keeps its whole capacity.
type jobRun struct {
	j     *rtJob
	tasks []int // tasks[head:] are queued
	head  int
}

// wdeque is one worker's local run queue: per-job task runs in arrival
// order, with a round-robin cursor so the owner interleaves concurrent
// queries at morsel granularity (the fairness the central queue had).
type wdeque struct {
	runs []*jobRun
	rr   int
}

// push appends task t of job j (called under Runtime.mu). Emptied
// jobRun nodes recycle through rt's freelist, so steady-state
// submission allocates nothing.
func (d *wdeque) push(rt *Runtime, j *rtJob, t int) {
	for _, r := range d.runs {
		if r.j == j {
			r.tasks = append(r.tasks, t)
			return
		}
	}
	d.runs = append(d.runs, rt.getJR(j, t))
}

// popLocal claims the owner's next morsel: jobs round-robin, LIFO
// within the chosen job.
func (d *wdeque) popLocal(rt *Runtime) (*rtJob, int, bool) {
	for len(d.runs) > 0 {
		if d.rr >= len(d.runs) {
			d.rr = 0
		}
		r := d.runs[d.rr]
		t := r.tasks[len(r.tasks)-1]
		r.tasks = r.tasks[:len(r.tasks)-1]
		j := r.j
		if len(r.tasks) == r.head {
			d.runs = slices.Delete(d.runs, d.rr, d.rr+1)
			rt.putJR(r)
		} else {
			d.rr++
		}
		return j, t, true
	}
	return nil, 0, false
}

// steal claims the oldest job's oldest morsel (FIFO on both axes).
func (d *wdeque) steal(rt *Runtime) (*rtJob, int, bool) {
	if len(d.runs) == 0 {
		return nil, 0, false
	}
	r := d.runs[0]
	t := r.tasks[r.head]
	r.head++
	j := r.j
	if len(r.tasks) == r.head {
		// Shift down rather than re-slice: d.runs keeps its capacity.
		d.runs = slices.Delete(d.runs, 0, 1)
		if d.rr > 0 {
			d.rr--
		}
		rt.putJR(r)
	}
	return j, t, true
}

// getJR takes a jobRun node off the freelist (or allocates one) and
// initialises it with the first task. Called under rt.mu.
func (rt *Runtime) getJR(j *rtJob, t int) *jobRun {
	if l := len(rt.jrFree); l > 0 {
		r := rt.jrFree[l-1]
		rt.jrFree[l-1] = nil
		rt.jrFree = rt.jrFree[:l-1]
		r.j, r.head = j, 0
		r.tasks = append(r.tasks[:0], t)
		return r
	}
	r := &jobRun{j: j, tasks: make([]int, 0, 16)}
	r.tasks = append(r.tasks, t)
	return r
}

// putJR recycles an emptied jobRun node. Called under rt.mu.
func (rt *Runtime) putJR(r *jobRun) {
	r.j = nil
	rt.jrFree = append(rt.jrFree, r)
}

// Options configures NewRuntimeOpts.
type Options struct {
	// Workers is the shared pool size; <= 0 selects
	// runtime.GOMAXPROCS(0).
	Workers int
	// MaxConcurrent is the admission bound; <= 0 selects
	// DefaultMaxConcurrent(Workers).
	MaxConcurrent int
	// Metrics creates a Prometheus-style metrics registry for this
	// runtime (MetricsRegistry): active queries, admission queue depth
	// and wait histogram, morsels by placement, per-phase seconds.
	// Almost every series is
	// pull-based over counters the runtime keeps anyway, so the hot
	// path is unchanged; off (the default) costs nothing.
	Metrics bool
	// PprofLabels makes workers run every morsel under
	// pprof.Labels("query", ..., "phase", ..., "worker", ...), so CPU
	// profiles (e.g. from the /debug/pprof endpoint next to /metrics)
	// attribute samples to strategies, phases and workers instead of
	// one undifferentiated worker loop. Off by default: applying
	// labels costs two goroutine-label swaps per morsel.
	PprofLabels bool
	// MemoryBudget caps the bytes the arena keeps resident in
	// kits (high-water trimming); <= 0 keeps mempool.DefaultLimit.
	// The same figure feeds admission control as a second resource
	// dimension at the public-API layer (costmodel.MemoryBound).
	MemoryBudget int64
}

// DefaultMaxConcurrent is the admission bound of a runtime of workers
// workers when none is configured: max(2, workers), enough to overlap
// one query's serial residues and phase boundaries with another's
// execution, and no more admitted queries than workers to serve them.
func DefaultMaxConcurrent(workers int) int { return max(2, workers) }

// NewRuntimeOpts creates a runtime from Options.
func NewRuntimeOpts(o Options) *Runtime {
	workers := o.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	maxConcurrent := o.MaxConcurrent
	if maxConcurrent <= 0 {
		maxConcurrent = DefaultMaxConcurrent(workers)
	}
	rt := &Runtime{
		workers: workers, maxConcurrent: maxConcurrent,
		labels: o.PprofLabels, mem: sharedArena,
	}
	if o.MemoryBudget > 0 {
		rt.mem.SetLimit(o.MemoryBudget)
	}
	rt.work = sync.NewCond(&rt.mu)
	rt.dq = make([]wdeque, workers)
	rt.workerTags = make([]string, workers)
	for w := range rt.workerTags {
		rt.workerTags[w] = strconv.Itoa(w)
	}
	if o.Metrics {
		rt.metrics = newRTMetrics(rt)
	}
	rt.wg.Add(workers)
	for w := 0; w < workers; w++ {
		go rt.worker(w)
	}
	return rt
}

// Workers returns the size of the shared pool.
func (rt *Runtime) Workers() int { return rt.workers }

// MaxConcurrent returns the admission bound: the maximum number of
// pipelines executing at once.
func (rt *Runtime) MaxConcurrent() int { return rt.maxConcurrent }

// SchedStats returns the process-wide scheduler counters accumulated
// across every job this runtime has executed.
func (rt *Runtime) SchedStats() SchedStats { return rt.sched.stats() }

// CompressedSavedBytes returns the total raw bytes the runtime's
// pipelines avoided moving by executing over block-compressed columns
// (decoded minus encoded bytes, per decode).
func (rt *Runtime) CompressedSavedBytes() int64 { return rt.compSaved.Load() }

// CompressedDecodeNanos returns the total time the runtime's pipelines
// spent inside block-decode loops, summed over the workers' decode loops
// (not wall time) — the CPU price paid for the saved bandwidth.
func (rt *Runtime) CompressedDecodeNanos() int64 { return rt.compDecodeNanos.Load() }

// MemStats snapshots the execution-memory arena serving this
// runtime's queries. Counters are process-wide: the arena is shared by
// every runtime.
func (rt *Runtime) MemStats() mempool.Stats { return rt.mem.Stats() }

// MetricsRegistry returns the runtime's metrics registry (nil unless
// Options.Metrics). Serve it with obs.Serve, or mount obs.NewMux on
// an existing listener.
func (rt *Runtime) MetricsRegistry() *obs.Registry {
	if rt.metrics == nil {
		return nil
	}
	return rt.metrics.reg
}

// ActiveQueries returns the number of currently admitted pipelines.
func (rt *Runtime) ActiveQueries() int {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.admitted
}

// QueuedQueries returns the number of pipelines waiting for admission.
func (rt *Runtime) QueuedQueries() int {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return len(rt.waiters)
}

// Close stops the worker goroutines and waits for them to exit. The
// runtime must be idle: no admitted or admission-waiting pipelines.
func (rt *Runtime) Close() {
	rt.mu.Lock()
	rt.closed = true
	rt.mu.Unlock()
	rt.work.Broadcast()
	rt.wg.Wait()
}

// worker is the shared-pool loop: drain the local deque (jobs
// round-robin, LIFO within a job), steal in ring order when empty,
// sleep when the whole machine is empty.
func (rt *Runtime) worker(w int) {
	defer rt.wg.Done()
	s := &Scratch{}
	for {
		j, t, dist, ok := rt.nextTask(w)
		if !ok {
			return
		}
		if j.trace == nil && j.labels == nil {
			j.fn(w, t, s) // the default fast path: no timing, no labels
		} else {
			rt.observedMorsel(j, w, t, dist, s)
		}
		if j.pending.Add(-1) == 0 {
			close(j.done)
		}
	}
}

// observedMorsel runs one morsel under the job's observability hooks:
// pprof goroutine labels (query, phase, worker) around the body, and
// a per-morsel trace span recording the worker, the task and the
// steal distance (-1 = local hit on the home worker, otherwise the
// victim's ring offset from the thief).
func (rt *Runtime) observedMorsel(j *rtJob, w, t, dist int, s *Scratch) {
	if j.labels != nil {
		pprof.SetGoroutineLabels(pprof.WithLabels(j.labels, pprof.Labels("worker", rt.workerTags[w])))
		defer pprof.SetGoroutineLabels(context.Background())
	}
	start := time.Now()
	j.fn(w, t, s)
	if j.trace != nil {
		j.trace.Span("morsel", j.phase, w, start, time.Since(start),
			map[string]int64{"task": int64(t), "dist": int64(dist)})
	}
}

// nextTask blocks until worker w claims a morsel — local deque first,
// then the other workers' in ring order from w — or the runtime closes.
// It reports the claim's steal distance (-1 = local hit, otherwise the
// victim's ring offset). Claim accounting (queue waits, scheduler
// counters) happens here, under the runtime mutex.
func (rt *Runtime) nextTask(w int) (*rtJob, int, int, bool) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	for {
		if j, t, ok := rt.dq[w].popLocal(rt); ok {
			rt.note(j, -1)
			return j, t, -1, true
		}
		for off := 1; off < rt.workers; off++ {
			if j, t, ok := rt.dq[(w+off)%rt.workers].steal(rt); ok {
				rt.note(j, off)
				return j, t, off, true
			}
		}
		if rt.closed {
			return nil, 0, 0, false
		}
		rt.work.Wait()
	}
}

// note records one claim under rt.mu: first-morsel queue wait plus the
// runtime-wide and per-query scheduler counters.
func (rt *Runtime) note(j *rtJob, dist int) {
	if !j.started {
		j.started = true
		j.e.queued.Add(int64(time.Since(j.enq)))
	}
	rt.sched.note(dist)
	j.e.sched.note(dist)
}

// submit places every morsel of j on its home worker's deque and wakes
// the workers.
func (rt *Runtime) submit(j *rtJob) {
	rt.mu.Lock()
	if rt.closed {
		rt.mu.Unlock()
		panic("exec: Run on a closed Runtime")
	}
	for t := 0; t < j.ntasks; t++ {
		rt.dq[j.home(t, rt.workers)].push(rt, j, t)
	}
	rt.mu.Unlock()
	rt.work.Broadcast()
}

// admit blocks until admission control grants a slot (FIFO beyond
// maxConcurrent concurrent pipelines).
func (rt *Runtime) admit() {
	if rt.metrics != nil {
		rt.metrics.queriesTotal.Inc()
	}
	rt.mu.Lock()
	if rt.closed {
		rt.mu.Unlock()
		panic("exec: admission on a closed Runtime")
	}
	if rt.admitted < rt.maxConcurrent && len(rt.waiters) == 0 {
		rt.admitted++
		rt.mu.Unlock()
		return
	}
	ch := make(chan struct{})
	rt.waiters = append(rt.waiters, ch)
	rt.mu.Unlock()
	<-ch
}

// release hands an admission slot to the longest-waiting pipeline, or
// frees it.
func (rt *Runtime) release() {
	rt.mu.Lock()
	if len(rt.waiters) > 0 {
		ch := rt.waiters[0]
		rt.waiters = rt.waiters[1:]
		rt.mu.Unlock()
		close(ch)
		return
	}
	rt.admitted--
	rt.mu.Unlock()
}
