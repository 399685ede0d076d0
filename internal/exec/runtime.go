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
//   - An engine's run submits one job: the task body and a task count.
//     Task t HOMES on worker (t + rot) mod workers, rot drawn once per
//     engine from the runtime's counter. Partition p and chunk k are
//     task p and task k of every job of a query, so successive phases
//     land them on the same worker, whose private caches still hold
//     them, while successive queries' small jobs start on successive
//     workers. Rotation is the declustering allocation with additive
//     discrepancy at most one (Doerr, Hebbinghaus & Werth): the workers'
//     shares of a job differ by at most one morsel.
//   - A job's tasks on one worker are one residue class, so a job
//     stores no task: it keeps one claim cursor per worker, the class's
//     next unclaimed task. The runtime keeps the jobs with unclaimed
//     tasks in submission order. A worker claims its own classes first
//     (every such claim is a LOCAL HIT), ascending within a class and
//     round-robin across the jobs, so concurrent queries interleave at
//     morsel granularity. An idle worker STEALS: it walks the other
//     workers in ring order from itself (workers are goroutines the Go
//     scheduler migrates freely, so no worker is nearer than another)
//     and takes the next task of the victim's class in the oldest job
//     that has one. Steals keep skew from idling the machine; the
//     counters (SchedStats) report local hits and stolen morsels.
//   - Each job records the time from submission to its first claimed
//     morsel; pipelines surface the accumulated wait as per-phase
//     queueing time in Timings, separating "waiting for the shared
//     engine" from "executing".
//
// The cursors are guarded by one runtime mutex: morsels are thousands
// of tuples each, so claim frequency is low and the lock is never the
// bottleneck — what homing buys is PLACEMENT (which worker services a
// partition, phase after phase), not lock granularity. Per-worker
// Scratch is allocated inside the worker goroutine.
//
// The byte-identical-output contract is untouched: a job's task
// decomposition (chunking, per-worker windows) is fixed by the
// submitting Engine's nominal worker count, and placement/stealing
// only select which worker executes a morsel, never what it computes.

import (
	"context"
	"fmt"
	"runtime"
	"runtime/pprof"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"radixdecluster/internal/mempool"
	"radixdecluster/internal/obs"
)

// SchedStats is the scheduler's counter set: how many morsels ran on
// their home worker (where earlier phases of the same partition ran)
// versus how many an idle worker stole.
type SchedStats struct {
	// LocalHits counts morsels claimed by their home worker.
	LocalHits int64
	// Stolen counts morsels an idle worker took from another worker's
	// share.
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

// Runtime owns the worker goroutines and the jobs they claim from.
// Create one with NewRuntimeOpts, hand it to pipelines with
// NewPipeline (or NewEngine for direct operator use), release the
// workers with Close.
type Runtime struct {
	workers       int
	maxConcurrent int
	labels        bool // pprof-label worker morsels (Options.PprofLabels)

	workerTags []string // worker id pre-rendered for pprof labels

	mu     sync.Mutex
	work   *sync.Cond // signals workers: submitted jobs or shutdown
	active []*rtJob   // jobs with unclaimed tasks, oldest first (guarded by mu)
	rr     []int      // per worker: the active job its next local claim tries first (guarded by mu)
	closed bool

	admitted int             // admission slots currently held
	waiters  []chan struct{} // FIFO admission queue

	rotSeq atomic.Uint64 // rotation source: one draw per engine
	sched  schedCounters // process-wide scheduler counters

	// Compressed-execution totals, accumulated per pipeline at
	// Execute end (pipeline.go) — bus bytes avoided and decode wall
	// time across every query the runtime has served.
	compSaved       atomic.Int64
	compDecodeNanos atomic.Int64

	metrics *rtMetrics // Prometheus-style registry hooks

	wg sync.WaitGroup
}

// rtJob is one run invocation of an Engine: the task body and, per
// worker, the claim cursor of the worker's residue class.
type rtJob struct {
	ntasks  int
	fn      func(task int, s *Scratch)
	rot     int   // task t homes on worker (t + rot) mod workers
	next    []int // per worker: its class's next unclaimed task (guarded by Runtime.mu)
	left    int   // unclaimed tasks (guarded by Runtime.mu)
	done    sync.WaitGroup
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

// Options configures NewRuntimeOpts.
type Options struct {
	// Workers is the shared pool size; <= 0 selects
	// runtime.GOMAXPROCS(0).
	Workers int
	// MaxConcurrent is the admission bound; <= 0 selects
	// DefaultMaxConcurrent(Workers).
	MaxConcurrent int
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
		labels: o.PprofLabels,
	}
	if o.MemoryBudget > 0 {
		sharedArena.SetLimit(o.MemoryBudget)
	}
	rt.work = sync.NewCond(&rt.mu)
	rt.rr = make([]int, workers)
	rt.workerTags = make([]string, workers)
	for w := range rt.workerTags {
		rt.workerTags[w] = strconv.Itoa(w)
	}
	rt.metrics = newRTMetrics(rt)
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
func (rt *Runtime) MemStats() mempool.Stats { return sharedArena.Stats() }

// MetricsRegistry returns the runtime's metrics registry: active
// queries, admission queue depth and wait histogram, morsels by
// placement, per-phase seconds. Mount it with obs.NewMux.
func (rt *Runtime) MetricsRegistry() *obs.Registry { return rt.metrics.reg }

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

// worker is the shared-pool loop: claim a morsel (own classes first,
// then the other workers' in ring order), run it, and sleep when the
// whole machine is empty.
func (rt *Runtime) worker(w int) {
	defer rt.wg.Done()
	s := &Scratch{worker: w}
	for {
		j, t, dist, ok := rt.nextTask(w)
		if !ok {
			return
		}
		if j.trace == nil && j.labels == nil {
			j.fn(t, s) // the default fast path: no timing, no labels
		} else {
			rt.observedMorsel(j, t, dist, s)
		}
		j.done.Done()
	}
}

// observedMorsel runs one morsel under the job's observability hooks:
// pprof goroutine labels (query, phase, worker) around the body, and
// a per-morsel trace span recording the worker, the task and the
// steal distance (-1 = local hit on the home worker, otherwise the
// victim's ring offset from the thief).
func (rt *Runtime) observedMorsel(j *rtJob, t, dist int, s *Scratch) {
	if j.labels != nil {
		pprof.SetGoroutineLabels(pprof.WithLabels(j.labels, pprof.Labels("worker", rt.workerTags[s.worker])))
		defer pprof.SetGoroutineLabels(context.Background())
	}
	start := time.Now()
	j.fn(t, s)
	if j.trace != nil {
		j.trace.Span("morsel", j.phase, s.worker, start, time.Since(start),
			map[string]int64{"task": int64(t), "dist": int64(dist)})
	}
}

// nextTask blocks until worker w claims a morsel — its own classes
// first, round-robin over the active jobs, then the other workers'
// classes in ring order from w, oldest job first — or the runtime
// closes. It reports the claim's steal distance (-1 = local hit,
// otherwise the victim's ring offset).
func (rt *Runtime) nextTask(w int) (*rtJob, int, int, bool) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	for {
		for k := range len(rt.active) {
			if i := (rt.rr[w] + k) % len(rt.active); rt.active[i].next[w] < rt.active[i].ntasks {
				rt.rr[w] = i + 1
				j, t := rt.claim(i, w, -1)
				return j, t, -1, true
			}
		}
		for off := 1; off < rt.workers; off++ {
			v := (w + off) % rt.workers
			for i, j := range rt.active {
				if j.next[v] < j.ntasks {
					j, t := rt.claim(i, v, off)
					return j, t, off, true
				}
			}
		}
		if rt.closed {
			return nil, 0, 0, false
		}
		rt.work.Wait()
	}
}

// claim takes the next task of worker v's class in active job i, under
// rt.mu: it advances the class cursor, books the claim — first-morsel
// queue wait, runtime-wide and per-query scheduler counters — and
// retires the job from the active list with its last task.
func (rt *Runtime) claim(i, v, dist int) (*rtJob, int) {
	j := rt.active[i]
	t := j.next[v]
	j.next[v] += rt.workers
	if j.left--; j.left == 0 {
		rt.active = slices.Delete(rt.active, i, i+1)
		for w, r := range rt.rr {
			if r > i {
				rt.rr[w] = r - 1
			}
		}
	}
	if !j.started {
		j.started = true
		j.e.queued.Add(int64(time.Since(j.enq)))
	}
	rt.sched.note(dist)
	j.e.sched.note(dist)
	return j, t
}

// submit sets every worker's claim cursor on j to the first task of its
// class, appends j to the active jobs and wakes the workers.
func (rt *Runtime) submit(j *rtJob) {
	j.next = make([]int, rt.workers)
	for w := range j.next {
		j.next[w] = (w - j.rot + rt.workers) % rt.workers
	}
	j.left = j.ntasks
	rt.mu.Lock()
	if rt.closed {
		rt.mu.Unlock()
		panic("exec: Run on a closed Runtime")
	}
	rt.active = append(rt.active, j)
	rt.mu.Unlock()
	rt.work.Broadcast()
}

// admit blocks until admission control grants a slot (FIFO beyond
// maxConcurrent concurrent pipelines).
func (rt *Runtime) admit() {
	rt.metrics.queriesTotal.Inc()
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
