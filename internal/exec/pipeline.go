package exec

// Phase pipelines: the uniform execution layer all five project-join
// strategies run on. A strategy is assembled as an ordered list of
// Phases; each Phase body receives the Engine, whose operators run
// morsel bodies built from the substrate's kernels (internal/radix,
// internal/join, internal/posjoin, internal/core, internal/nsm,
// internal/jive), sharing one runtime lease and the runtime workers'
// Scratch across all phases of a run.
//
// The contract (see also the package comment in exec.go):
//
//   - Engine with 0 workers is the serial engine: every operator runs
//     the same morsel bodies inline, one morsel per chunked range, no
//     goroutines, no runtime — its buffers leased from the process
//     arena like a runtime query's. Engine with n >= 1 workers is a
//     lease on a Runtime; an operator's morsels run on it when
//     Engine.serial says so (nominal > 1, input at or above
//     MinParallelN) and inline otherwise. Either way an operator's
//     output bytes are the serial engine's — parallelism changes
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

	"radixdecluster/internal/mempool"
	"radixdecluster/internal/obs"
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
	// Sched is the scheduler's counter set for this
	// pipeline's morsels: local hits (executed on the home worker)
	// and stolen morsels. Zero on the serial engine.
	Sched SchedStats
	// Comp is the pipeline's decode tally (CompStats): encoded image
	// columns its fetches decoded, encoded bytes read, raw bytes that
	// traffic replaced, and time inside block-decode loops. Zero when
	// every input executed raw.
	Comp CompStats
	// Mem is the query's execution-memory accounting: bytes of buffers
	// drawn from the arena — transients and result arrays alike —
	// (Acquired), the part of them served by recycled buffers (Reused),
	// and the peak bytes held at once (HighWater), serial engine
	// included.
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
// pipeline-level spans — admission, whole phases — kept clear of the
// worker tracks (worker ids are always far below it).
const tracePipelineTID = 1000

// Pipeline is an ordered list of phases bound to one Engine. Build it
// with NewPipeline + Then, run it with Execute, release the lease with
// Close.
type Pipeline struct {
	eng    *Engine
	phases []Phase
	trace  *obs.Trace // nil = tracing off
}

// SetTrace attaches a per-query trace buffer: Execute emits one span
// per phase (with queue waits and morsel counts as args) plus an
// admission span, and runtime workers emit one span per morsel (with
// worker id, task and steal distance). A nil trace — the default —
// disables all emission. Call before Execute.
func (p *Pipeline) SetTrace(t *obs.Trace) {
	p.trace = t
	p.eng.trace = t
}

// SetQueryTag names the query for pprof labels (e.g. the strategy
// name): when the runtime runs with Options.PprofLabels, every morsel
// of this pipeline executes under pprof.Labels("query", tag,
// "phase", ..., "worker", ...). Call before Execute.
func (p *Pipeline) SetQueryTag(tag string) { p.eng.queryTag = tag }

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

// Close releases the engine's runtime lease.
func (p *Pipeline) Close() { p.eng.Close() }

// Then appends a phase and returns the pipeline for chaining.
func (p *Pipeline) Then(kind PhaseKind, name string, run func(e *Engine) error) *Pipeline {
	p.phases = append(p.phases, Phase{Kind: kind, Name: name, Run: run})
	return p
}

// Execute runs the phases in order, accumulating each phase's elapsed
// time into its kind's bucket — less what its operators attributed to
// other kinds (a fused pass), which goes to theirs. The first phase
// error aborts the run; the timings gathered so far are returned
// alongside it.
//
// With a trace attached (SetTrace) each phase emits a span on the
// pipeline track carrying its queue wait and morsel count; admission
// emits its own span when it waited. On a metrics-enabled runtime each
// phase's elapsed seconds feed the per-phase counter family.
func (p *Pipeline) Execute() (Timings, error) {
	e := p.eng
	var tm Timings
	start := time.Now()
	if tm.Admission = e.attach(); tm.Admission > 0 {
		p.trace.Span("admission", "sched", tracePipelineTID, start, tm.Admission, nil)
	}
	var err error
	for _, ph := range p.phases {
		e.setPhase(ph.Kind.String())
		t := time.Now()
		q0 := e.queued.Load()
		sched0 := e.sched.stats()
		err = ph.Run(e)
		elapsed := time.Since(t)
		qw := time.Duration(e.queued.Load() - q0)
		byKind, own := e.booked, elapsed
		e.booked = [NumPhaseKinds]time.Duration{}
		for _, d := range byKind {
			own -= d
		}
		byKind[ph.Kind] += own
		for k, d := range byKind {
			tm.ByKind[k] += d
		}
		tm.QueueByKind[ph.Kind] += qw
		if p.trace != nil {
			p.trace.Span(ph.Name, ph.Kind.String(), tracePipelineTID, t, elapsed,
				map[string]int64{
					"queue_wait_ns": int64(qw),
					"morsels":       e.sched.stats().Sub(sched0).Tasks(),
				})
		}
		if e.rt != nil && e.rt.metrics != nil {
			for k, d := range byKind {
				if d != 0 {
					e.rt.metrics.phaseSeconds.With(PhaseKind(k).String()).Add(d.Seconds())
				}
			}
		}
		if err != nil {
			break
		}
	}
	tm.Total = time.Since(start)
	tm.Sched = e.sched.stats()
	tm.Comp = e.comp.snapshot()
	// Snapshot before Close releases the lease: the accounting is the
	// query's, the buffers go back to the arena.
	tm.Mem = e.memStats()
	if e.rt != nil {
		e.rt.compSaved.Add(tm.Comp.SavedBytes)
		e.rt.compDecodeNanos.Add(tm.Comp.DecodeNanos)
	}
	return tm, err
}

// attribute books d of the running phase's wall time under kind k
// instead of the phase's own kind: an operator that fuses the work of
// several kinds into one phase apportions its wall time this way, so
// Timings.ByKind still tiles the run. Called from the phase body.
func (e *Engine) attribute(k PhaseKind, d time.Duration) { e.booked[k] += d }

// StepCat is the trace category of Step spans, which share the
// pipeline track with the phase spans they nest in.
const StepCat = "step"

// Step records a span named name, from start to end, on the pipeline
// track inside the running phase's span: a one-off part of a phase worth
// telling apart in the trace (a first query building a shared image).
// No-op untraced.
func (e *Engine) Step(name string, start, end time.Time) {
	e.trace.Span(name, StepCat, tracePipelineTID, start, end.Sub(start), nil)
}

// ForRanges runs body over contiguous chunks of [0,n) as morsels (one
// [0,n) chunk, inline, when the engine runs n items serially). The
// body must write only output slots derivable from its range (disjoint
// per chunk) — the property that makes chunked scans, stitches and
// gathers byte-identical to one loop over the whole range.
func (e *Engine) ForRanges(n int, body func(r Range) error) error {
	chunks := e.chunksFor(n)
	errs := e.errSlots(len(chunks))
	e.run(n, len(chunks), func(t int, _ *Scratch) {
		errs[t] = body(chunks[t])
	})
	return firstErr(errs)
}
