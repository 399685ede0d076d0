package exec

// Phase pipelines: the uniform execution layer all five project-join
// strategies run on. A strategy is assembled as an ordered list of
// Phases; each Phase body receives the Engine, which dispatches every
// substrate operator either to the serial paper implementations
// (internal/radix, internal/join, internal/posjoin, internal/core,
// internal/nsm, internal/jive) or to their morsel-driven parallel
// counterparts in this package, sharing one runtime lease and the
// runtime workers' Scratch across all phases of a run.
//
// The contract (see also the package comment in exec.go):
//
//   - Engine with 0 workers is the serial engine: every operator calls
//     the paper code directly, no goroutines, no pool. Engine with
//     n >= 1 workers holds a Pool — a lease on a Runtime; operators run
//     parallel when the input clears MinParallelN and fall back to the
//     serial code otherwise. Either way an operator's output is
//     byte-identical to its serial counterpart — parallelism changes
//     wall-clock only.
//   - Phases run strictly in order; a phase starts only after its
//     predecessor finished, so phase bodies may close over shared
//     variables without synchronisation. All intra-phase parallelism
//     goes through the Engine.
//   - Each Phase carries a PhaseKind that buckets its elapsed time
//     into the paper's wall-clock breakdown (scan / join / reorder /
//     project / decluster); Execute returns the accumulated Timings.
//   - Phase bodies must route every data-parallel loop through the
//     Engine (operator methods or ForRanges) — strategies own no
//     goroutines of their own.

import (
	"time"

	"radixdecluster/internal/bat"
	"radixdecluster/internal/core"
	"radixdecluster/internal/join"
	"radixdecluster/internal/mem"
	"radixdecluster/internal/mempool"
	"radixdecluster/internal/obs"
	"radixdecluster/internal/radix"
)

// PhaseKind buckets a phase's elapsed time into the paper's
// phase-by-phase breakdown.
type PhaseKind int

const (
	// PhaseScan: record scans, wide-tuple stitching, key extraction.
	PhaseScan PhaseKind = iota
	// PhaseJoin: clustering of the join inputs plus hash build/probe.
	PhaseJoin
	// PhaseReorder: Radix-Sort / partial Radix-Cluster of the join-index.
	PhaseReorder
	// PhaseProjectLarger / PhaseProjectSmaller: the Positional-Joins
	// (or NSM record gathers) of the two projection sides.
	PhaseProjectLarger
	PhaseProjectSmaller
	// PhaseDecluster: Radix-Decluster, the Jive right-phase scatter, or
	// final result assembly.
	PhaseDecluster
	// NumPhaseKinds sizes Timings.ByKind.
	NumPhaseKinds
)

func (k PhaseKind) String() string {
	switch k {
	case PhaseScan:
		return "scan"
	case PhaseJoin:
		return "join"
	case PhaseReorder:
		return "reorder"
	case PhaseProjectLarger:
		return "project-larger"
	case PhaseProjectSmaller:
		return "project-smaller"
	case PhaseDecluster:
		return "decluster"
	}
	return "unknown"
}

// Phase is one stage of a strategy pipeline.
type Phase struct {
	Kind PhaseKind
	Name string
	Run  func(e *Engine) error
}

// Timings is the wall-clock outcome of Pipeline.Execute: per-kind
// accumulated durations plus the end-to-end total. A parallel pipeline
// (a runtime lease) separates queueing from execution: ByKind is
// wall-clock per kind, QueueByKind the portion of it spent waiting in
// the runtime's morsel queue (submission to first claimed morsel, per
// job), and Admission the wait for admission control before the first
// phase. The serial engine reports zero queueing.
type Timings struct {
	ByKind      [NumPhaseKinds]time.Duration
	QueueByKind [NumPhaseKinds]time.Duration
	Admission   time.Duration
	Total       time.Duration
	// SharedScanHits counts the pipeline's declared scans that were
	// served by a pass another concurrent pipeline had already started
	// (cooperative scans; zero on the serial engine and on runtimes
	// without ShareScans).
	SharedScanHits int64
	// Sched is the affinity scheduler's counter set for this
	// pipeline's morsels: local hits (executed on the home worker
	// whose caches the placement predicted warm) and steals by
	// topology distance. Zero on the serial engine.
	Sched SchedStats
	// Comp is the pipeline's compressed-execution tally: compressed
	// column inputs consumed, encoded bytes read, raw bytes that
	// traffic replaced, and wall time inside block-decode loops. Zero
	// when every input executed raw.
	Comp CompStats
	// Mem is the query's execution-memory accounting: bytes of buffers
	// drawn from the arena — transients and result arrays alike —
	// (Acquired), the part of them served by recycled buffers (Reused),
	// and the peak bytes held at once (HighWater). Zero on the serial
	// engine.
	Mem mempool.LeaseStats
}

// Queue returns the total queueing time: admission wait plus the
// accumulated per-phase morsel-queue waits.
func (t Timings) Queue() time.Duration {
	q := t.Admission
	for _, d := range t.QueueByKind {
		q += d
	}
	return q
}

// tracePipelineTID is the synthetic trace track (Chrome tid) carrying
// pipeline-level spans — admission, whole phases, shared-scan hits —
// kept clear of the worker tracks (worker ids are always far below it).
const tracePipelineTID = 1000

// Pipeline is an ordered list of phases bound to one Engine. Build it
// with NewPipeline + Then, run it with Execute, release the pool with
// Close.
type Pipeline struct {
	eng    *Engine
	phases []Phase
	trace  *obs.Trace // nil = tracing off
}

// SetTrace attaches a per-query trace buffer: Execute emits one span
// per phase (with queue waits, morsel counts and shared-scan hits as
// args) plus an admission span, and runtime workers emit one
// span per morsel (with worker id, task and steal distance). A nil
// trace — the default — disables all emission. Call before Execute.
func (p *Pipeline) SetTrace(t *obs.Trace) {
	p.trace = t
	if p.eng.pool != nil {
		p.eng.pool.trace = t
	}
}

// SetQueryTag names the query for pprof labels (e.g. the strategy
// name): when the runtime runs with Options.PprofLabels, every morsel
// of this pipeline executes under pprof.Labels("query", tag,
// "phase", ..., "worker", ...). Call before Execute.
func (p *Pipeline) SetQueryTag(tag string) {
	if p.eng.pool != nil {
		p.eng.pool.queryTag = tag
	}
}

// NewPipeline creates a pipeline on a fresh engine (see NewEngine):
// workers <= 0 is the serial paper mode; otherwise Execute first passes
// rt's admission control (the wait is reported as Timings.Admission),
// then submits every phase's morsels to the runtime's fair
// query-tagged queue, and Close releases the admission slot.
func NewPipeline(rt *Runtime, workers int) *Pipeline {
	return &Pipeline{eng: NewEngine(rt, workers)}
}

// Engine exposes the pipeline's engine (for assembly-time decisions).
func (p *Pipeline) Engine() *Engine { return p.eng }

// SetAffinitySeed salts the runtime placement hash with the query's
// base-data identity (e.g. a ScanKey seed), so concurrent pipelines
// over the same source home equal partition keys on equal workers —
// cross-query cache affinity on top of the cross-phase affinity every
// pipeline gets. No-op for the serial engine. Call before Execute.
func (p *Pipeline) SetAffinitySeed(seed uint64) {
	if p.eng.pool != nil {
		p.eng.pool.SetAffinitySeed(seed)
	}
}

// Workers returns the engine's nominal worker count, 0 for serial.
func (p *Pipeline) Workers() int { return p.eng.Workers() }

// Close releases the engine's runtime lease.
func (p *Pipeline) Close() { p.eng.Close() }

// Then appends a phase and returns the pipeline for chaining.
func (p *Pipeline) Then(kind PhaseKind, name string, run func(e *Engine) error) *Pipeline {
	p.phases = append(p.phases, Phase{Kind: kind, Name: name, Run: run})
	return p
}

// Execute runs the phases in order, accumulating each phase's elapsed
// time into its kind's bucket. The first phase error aborts the run;
// the timings gathered so far are returned alongside it.
//
// With a trace attached (SetTrace) each phase emits a span on the
// pipeline track carrying its queue wait, morsel count and shared-
// scan hits; admission emits its own span when it waited. On a
// metrics-enabled runtime each phase's elapsed seconds feed the
// per-phase counter family.
func (p *Pipeline) Execute() (Timings, error) {
	var tm Timings
	start := time.Now()
	if p.eng.pool != nil {
		admStart := time.Now()
		tm.Admission = p.eng.pool.attach()
		if tm.Admission > 0 {
			p.trace.Span("admission", "sched", tracePipelineTID, admStart, tm.Admission, nil)
		}
	}
	var err error
	for _, ph := range p.phases {
		if p.eng.pool != nil {
			p.eng.pool.setPhase(ph.Kind.String())
		}
		t := time.Now()
		q0 := p.eng.queueWait()
		sched0 := p.eng.schedStats()
		hits0 := p.eng.sharedScanHits()
		err = ph.Run(p.eng)
		elapsed := time.Since(t)
		qw := p.eng.queueWait() - q0
		tm.ByKind[ph.Kind] += elapsed
		tm.QueueByKind[ph.Kind] += qw
		if p.trace != nil {
			p.trace.Span(ph.Name, ph.Kind.String(), tracePipelineTID, t, elapsed,
				map[string]int64{
					"queue_wait_ns":    int64(qw),
					"morsels":          p.eng.schedStats().Sub(sched0).Tasks(),
					"shared_scan_hits": p.eng.sharedScanHits() - hits0,
				})
		}
		if m := p.eng.rtMetrics(); m != nil {
			m.phaseSeconds.With(ph.Kind.String()).Add(elapsed.Seconds())
		}
		if err != nil {
			break
		}
	}
	tm.Total = time.Since(start)
	tm.SharedScanHits = p.eng.sharedScanHits()
	tm.Sched = p.eng.schedStats()
	tm.Comp = p.eng.comp.snapshot()
	if pool := p.eng.pool; pool != nil {
		// Snapshot before Close releases the lease: the accounting is
		// the query's, the buffers go back to the arena.
		tm.Mem = pool.memStats()
		pool.rt.compSaved.Add(tm.Comp.SavedBytes)
		pool.rt.compDecodeNanos.Add(tm.Comp.DecodeNanos)
	}
	return tm, err
}

// Engine dispatches substrate operators to the serial paper code (0
// workers) or to their parallel counterparts on a runtime lease. One
// Engine — and hence one lease — is shared by every phase of a
// pipeline.
type Engine struct {
	pool *Pool
	comp compCounters // compressed-execution counters (compressed.go)
	sdec *decoder     // serial-path compressed scratch, lazy
}

// NewEngine creates an engine: workers <= 0 selects the serial paper
// engine (no pool, no goroutines; rt is not consulted), workers >= 1 a
// lease on rt with that nominal parallelism (see Runtime.NewPool).
func NewEngine(rt *Runtime, workers int) *Engine {
	if workers <= 0 {
		return &Engine{}
	}
	return &Engine{pool: rt.NewPool(workers)}
}

// Workers returns the nominal worker count, 0 for the serial engine.
func (e *Engine) Workers() int {
	if e.pool == nil {
		return 0
	}
	return e.pool.Workers()
}

// Close releases the runtime lease (no-op for the serial engine).
func (e *Engine) Close() {
	if e.pool != nil {
		e.pool.Close()
	}
}

// mem returns the query's buffer lease: nil on the serial engine,
// where every acquisition is a plain make.
func (e *Engine) mem() *mempool.Lease {
	if e.pool == nil {
		return nil
	}
	return e.pool.Mem()
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

// queueWait returns the engine pool's accumulated morsel-queue wait
// (zero for the serial engine).
func (e *Engine) queueWait() time.Duration {
	if e.pool == nil {
		return 0
	}
	return e.pool.queueWait()
}

// sharedScanHits returns the pool's cooperative-scan hit count (zero
// for the serial engine).
func (e *Engine) sharedScanHits() int64 {
	if e.pool == nil {
		return 0
	}
	return e.pool.sharedScanHits()
}

// schedStats returns the pool's scheduler counters (zero for the
// serial engine).
func (e *Engine) schedStats() SchedStats {
	if e.pool == nil {
		return SchedStats{}
	}
	return e.pool.schedStats()
}

// rtMetrics returns the runtime's metrics bundle, nil whenever the
// engine is serial or the runtime was built without Options.Metrics.
func (e *Engine) rtMetrics() *rtMetrics {
	if e.pool == nil {
		return nil
	}
	return e.pool.rt.metrics
}

// parallel reports whether an n-item operator should run on the pool.
func (e *Engine) parallel(n int) bool {
	return e.pool != nil && e.pool.Workers() > 1 && n >= MinParallelN
}

// ForRanges runs body over contiguous chunks of [0,n): a single
// [0,n) chunk on the serial engine, pool-scheduled morsels otherwise.
// The body must write only output slots derivable from its range
// (disjoint per chunk) — the property that makes chunked scans,
// stitches and gathers byte-identical to their serial loops.
func (e *Engine) ForRanges(n int, body func(r Range) error) error {
	if n <= 0 {
		return nil
	}
	if !e.parallel(n) {
		return body(Range{Lo: 0, Hi: n})
	}
	chunks := e.pool.chunksFor(n)
	errs := e.pool.errSlots(len(chunks))
	e.pool.Run(len(chunks), func(_, t int, _ *Scratch) {
		errs[t] = body(chunks[t])
	})
	return firstErr(errs)
}

// SharedRanges is ForRanges with a declared scan source: on a runtime
// with scan sharing enabled, concurrent pipelines declaring equal keys
// are served by one circular pass over the chunks (scanshare.go) —
// late attachers start mid-circle and wrap. Everywhere else (the
// serial engine, sharing off, zero key, sub-MinParallelN inputs) it is
// exactly ForRanges. The body contract is the ForRanges
// one plus chunk-order independence, which disjoint-write bodies have
// by construction; output bytes never depend on whether a pass was
// shared.
func (e *Engine) SharedRanges(key ScanKey, n int, body func(Range) error) error {
	if key == (ScanKey{}) || !e.parallel(n) || !e.pool.rt.shareScans {
		return e.ForRanges(n, body)
	}
	return e.pool.sharedScan(key, n, body)
}

// PartitionedJoin is the Partitioned Hash-Join producing a join-index.
func (e *Engine) PartitionedJoin(largerOIDs []OID, largerKeys []int32, smallerOIDs []OID, smallerKeys []int32, o radix.Opts) (*join.Index, error) {
	if e.pool == nil {
		return join.Partitioned(largerOIDs, largerKeys, smallerOIDs, smallerKeys, o)
	}
	return e.pool.Partitioned(largerOIDs, largerKeys, smallerOIDs, smallerKeys, o)
}

// ClusterOIDPairs radix-clusters an [oid,oid] BAT on the key column.
func (e *Engine) ClusterOIDPairs(key, other []OID, o radix.Opts) (*radix.OIDPairsResult, error) {
	if e.pool == nil {
		return radix.ClusterOIDPairs(key, other, o)
	}
	return e.pool.ClusterOIDPairs(key, other, o)
}

// SortOIDPairs fully Radix-Sorts an [oid,oid] BAT on the key column.
func (e *Engine) SortOIDPairs(key, other []OID, h mem.Hierarchy) (*radix.OIDPairsResult, error) {
	if e.pool == nil {
		return radix.SortOIDPairs(key, other, h)
	}
	return e.pool.SortOIDPairs(key, other, h)
}

// ClusterForDecluster performs the Figure-4 re-clustering on this
// engine's clustering operator.
func (e *Engine) ClusterForDecluster(smallerOIDs []OID, o radix.Opts) (*core.Clustered, error) {
	return core.ClusterForDeclusterWith(smallerOIDs, o, e.ClusterOIDPairs)
}

// Decluster runs Radix-Decluster with the planned (serial) window. The
// parallel engine divides the window between its workers internally,
// so the concurrently live window regions together still fit the
// cache; output bytes never depend on the division.
func (e *Engine) Decluster(values []int32, ids []OID, borders []bat.Border, windowTuples int) ([]int32, error) {
	if !e.parallel(len(values)) {
		return core.Decluster(values, ids, borders, windowTuples)
	}
	return e.pool.Decluster(values, ids, borders, perWorkerWindow(windowTuples, e.pool.Workers()))
}

// perWorkerWindow splits the planned insertion window across workers
// (each worker's live region gets a 1/workers share of the cache
// budget), clamped to at least one tuple.
func perWorkerWindow(windowTuples, workers int) int {
	w := windowTuples / workers
	if w < 1 {
		w = 1
	}
	return w
}
