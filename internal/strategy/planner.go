package strategy

// The planner. A query is planned once, by its strategy's plan step
// (PlanDSMPost ... PlanNSMPostJive), into one record — Plan — before a
// phase is listed; the assembly only reads the record, and the root
// package's PlanJoin asks the same step, so what it describes is what a
// run executes. Methods, radix bits and the insertion window follow
// from the paper's rules (§3.1, §4.1) and the hierarchy alone; the
// worker count and the representation are resolved by Config.decide —
// from the query, the hierarchy and the runtime's size, never from what
// else the runtime happens to be doing.
//
// Every parallel run executes on a runtime: Config.Runtime, or the
// process default (DefaultRuntime) when that is nil. The run functions
// resolve it before they plan, so a plan step only ever sees
// Config.Runtime — and a caller that only plans never creates the
// default.

import (
	"fmt"
	"runtime"
	"slices"
	"sync"

	"radixdecluster/internal/compress"
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
	// Compressed is the representation: true when the run executes over
	// block-compressed column images.
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

// CostFn is a strategy's modeled cost for one query's shape: its
// Appendix-A formula on model m, over one of w workers' share of every
// cardinality and of the insertion window (w = 1: the serial formula).
// The plan step hands it to costmodel.CompressedWins; PlanJoin evaluates
// the same function for its estimate.
type CostFn func(m costmodel.Model, w int) costmodel.Cost

// share is one of w workers' part of n tuples.
func share(n, w int) int { return (n + w - 1) / w }

// decide completes a plan with its worker count and representation,
// the only reader of Config.Parallelism and Config.Compress. An explicit
// worker count is taken as-is, 0 stays on the serial paper path and
// AutoParallelism is autoWorkers (a cap of 1 stays serial). A joinInput
// (total join input cardinality) below the executor's serial-fallback
// threshold is planned serial: every operator would fall back to serial
// code anyway, so the query never enters runtime admission and the plan
// says Workers = 0. The cost model (costmodel.CompressedWins over the
// strategy's cost, at the plan's worker count) is consulted only for
// CompressAuto with an encoding present, so no other query evaluates a
// formula or triggers a calibration probe (costmodel.SaturationStreams,
// DecodeNanos). encs are the sides' compressed images (nil entries are
// raw-only columns).
func (c Config) decide(p *Plan, joinInput int, cost CostFn, encs ...[]*compress.Encoded) {
	p.Workers = max(c.Parallelism, 0)
	if c.Parallelism == AutoParallelism {
		if w := c.autoWorkers(); w > 1 {
			p.Workers = w
		}
	}
	if joinInput < exec.MinParallelN {
		p.Workers = 0
	}
	encoded := c.Compress != CompressOff && slices.ContainsFunc(encs, func(side []*compress.Encoded) bool {
		return slices.ContainsFunc(side, func(e *compress.Encoded) bool { return e != nil })
	})
	p.Compressed = encoded && (c.Compress == CompressOn ||
		costmodel.CompressedWins(costmodel.Model{H: c.hier()}, p.Workers, cost, compressionTerm(encs)))
}

// pipeline opens the engine the plan selects on the run's (resolved)
// runtime. affinitySeed is the query's base-data identity
// (exec.AffinitySeed), salting the runtime's placement hash so
// concurrent queries over the same source home equal partitions on
// equal workers.
func (c Config) pipeline(p Plan, affinitySeed uint64) *exec.Pipeline {
	pl := exec.NewPipeline(c.Runtime, p.Workers)
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
