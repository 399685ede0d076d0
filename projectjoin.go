package radixdecluster

import (
	"fmt"
	"runtime"
	"time"

	"radixdecluster/internal/bat"
	"radixdecluster/internal/core"
	"radixdecluster/internal/costmodel"
	"radixdecluster/internal/exec"
	"radixdecluster/internal/mempool"
	"radixdecluster/internal/obs"
	"radixdecluster/internal/radix"
	"radixdecluster/internal/strategy"
)

// Strategy selects the end-to-end execution plan for ProjectJoin
// (Figure 10's legend).
type Strategy int

const (
	// AutoStrategy lets the planner choose (it picks DSM
	// post-projection, the paper's overall winner, with per-side
	// projection methods resolved by the Figure-10c rules).
	AutoStrategy Strategy = iota
	// DSMPostDecluster: join-index first, then column projections with
	// partial Radix-Cluster / Radix-Decluster — the paper's
	// contribution.
	DSMPostDecluster
	// DSMPre: projection columns travel through a partitioned
	// hash-join as wide tuples stitched from DSM columns.
	DSMPre
	// NSMPreHash: the conventional RDBMS plan — record scans feed a
	// naive hash join (Figure 10's "NSM-pre-hash" baseline).
	NSMPreHash
	// NSMPrePhash: record scans feed a cache-conscious partitioned
	// hash-join ("NSM-pre-phash").
	NSMPrePhash
	// NSMPostDecluster: post-projection over row storage using the
	// Radix algorithms.
	NSMPostDecluster
	// NSMPostJive: post-projection with Jive-Join [LR99].
	NSMPostJive
)

// String returns the strategy's canonical name. Every constant has a
// distinct name (round-trippable through ParseStrategy):
//
//	auto, DSM-post-decluster, DSM-pre, NSM-pre-hash, NSM-pre-phash,
//	NSM-post-decluster, NSM-post-jive
//
// DSMPre is deliberately named "DSM-pre" rather than Figure 10's
// legend label "DSM-pre-phash": the DSM pre-projection always joins
// partitioned, so the suffix adds nothing — and it collided with
// NSMPrePhash's "-phash" suffix style, making the two easy to confuse
// in logs and impossible to parse back unambiguously by suffix.
func (s Strategy) String() string {
	switch s {
	case AutoStrategy:
		return "auto"
	case DSMPostDecluster:
		return "DSM-post-decluster"
	case DSMPre:
		return "DSM-pre"
	case NSMPreHash:
		return "NSM-pre-hash"
	case NSMPrePhash:
		return "NSM-pre-phash"
	case NSMPostDecluster:
		return "NSM-post-decluster"
	case NSMPostJive:
		return "NSM-post-jive"
	}
	return fmt.Sprintf("Strategy(%d)", int(s))
}

// ProjMethod selects a per-side projection method for the DSM
// post-projection strategy (§4.1's one-letter codes).
type ProjMethod byte

const (
	// AutoMethod lets the planner decide.
	AutoMethod ProjMethod = 0
	// UnsortedMethod ("u"): Positional-Joins straight off the join-index.
	UnsortedMethod ProjMethod = 'u'
	// SortedMethod ("s"): Radix-Sort the join-index first (larger side).
	SortedMethod ProjMethod = 's'
	// ClusterMethod ("c"): partial Radix-Cluster (larger side).
	ClusterMethod ProjMethod = 'c'
	// DeclusterMethod ("d"): clustered fetch + Radix-Decluster
	// (smaller side).
	DeclusterMethod ProjMethod = 'd'
)

// Compression selects whether ProjectJoin executes over block-compressed
// encodings of the relations' join images (relations constructed
// without WithCompression always run raw). Compressed execution exists
// where it can save memory traffic: a runtime u/u DSM post-projection
// query — the Auto plan on a runtime — runs the raw plan's methods, bits
// and window, and each of its fetches decodes a partition of its join
// image's encodings where it gathers from it. Every other plan (paper
// mode, a forced non-u method, DSM pre-projection, every NSM strategy)
// runs raw under every mode: decoding a whole column next to the raw
// one it copies cannot cost less than reading the raw one. Result bytes
// are identical in every mode.
type Compression int

const (
	// CompressionOff executes over the raw arrays (default).
	CompressionOff Compression = iota
	// CompressionAuto resolves to raw execution, as CompressionOff: the
	// cost-model choice it once named picked compressed in none of 120
	// measured joinrun shapes. It stays accepted so callers that set it
	// keep working.
	CompressionAuto
	// CompressionOn executes a runtime u/u DSM post-projection over
	// WithCompression relations compressed: its join images hold
	// encodings of the image-order columns, counted in JoinImageBytes.
	// Every other plan runs raw.
	CompressionOn
)

// String returns "off", "auto" or "on".
func (c Compression) String() string {
	switch c {
	case CompressionAuto:
		return "auto"
	case CompressionOn:
		return "on"
	}
	return "off"
}

// JoinQuery is the paper's §1.1 query:
//
//	SELECT larger.a1..aY, smaller.b1..bZ
//	FROM larger, smaller WHERE larger.key = smaller.key
type JoinQuery struct {
	Larger, Smaller *Relation
	// LargerKey / SmallerKey name the join-key columns.
	LargerKey, SmallerKey string
	// LargerProject / SmallerProject name the projection columns
	// (a1..aY and b1..bZ).
	LargerProject, SmallerProject []string
	// Strategy picks the plan; per-side methods refine DSM
	// post-projection.
	Strategy                    Strategy
	LargerMethod, SmallerMethod ProjMethod
	// Parallelism selects the execution engine: 0 (the default) is
	// the paper's serial single-threaded mode; n >= 1 runs the chosen
	// strategy with nominal parallelism n on the shared runtime's
	// morsel-driven executor; AutoParallelism runs it on every worker
	// the runtime has — min(runtime.GOMAXPROCS, the shared pool size),
	// serial when that is 1: the workers are shared between queries at
	// morsel granularity, so the count depends on nothing else the
	// runtime is doing. A query whose join
	// inputs total fewer than 16 Ki tuples is planned serial whatever
	// this says (PlanJoin shows the resolved count). Every
	// strategy — DSM post- and pre-projection and all NSM plans —
	// executes as a phase pipeline, and parallel runs return results
	// byte-identical to serial runs regardless of how many queries
	// share the runtime.
	Parallelism int
	// Runtime selects the shared execution runtime for parallel runs:
	// nil uses the lazily-initialized process default
	// (DefaultRuntime), so concurrent queries in one process
	// automatically share a single worker pool under admission
	// control. Serial runs (Parallelism 0) never involve a runtime.
	Runtime *Runtime
	// Compression selects the execution format when the relations were
	// built WithCompression: on runs a runtime u/u DSM post-projection
	// over encodings of its join images, decoded partition by partition
	// inside its fetches, and every other plan raw; off (the default) and
	// auto run raw and build no encoding. Never changes result bytes.
	Compression Compression
	// Trace records this query's execution as span events — per-phase
	// spans with queue waits and morsel counts, per-morsel worker
	// spans with steal distances, admission waits — returned in
	// Result.Trace for export as Chrome trace-event JSON (Perfetto). Tracing never changes the result bytes; off (the
	// default) it costs nothing.
	Trace bool
	// Hier drives all planning. The zero value means the Runtime's
	// description (RuntimeConfig.Hier) for a query that names a Runtime,
	// and the paper's Pentium 4 otherwise — so the library default plans
	// exactly as the paper does. It sizes every plan and picks paper
	// mode's DSM post-projection methods; a runtime DSM post-projection
	// query with Auto methods plans u/u over its join images whatever it
	// says.
	Hier Hierarchy
}

// AutoParallelism (as JoinQuery.Parallelism) runs the query with as
// many workers as its runtime has (at most runtime.GOMAXPROCS), and on
// the serial paper path when that is one.
const AutoParallelism = strategy.AutoParallelism

// Timing is the per-phase wall-clock breakdown of a run. Queue is the
// time spent waiting on the shared runtime rather than executing: the
// admission-control wait plus every phase's morsel-queue waits. The
// morsel-queue component is contained in the phase times; the
// admission component precedes the first phase and is contained only
// in Total. Queue is zero for serial runs.
type Timing struct {
	Scan           time.Duration
	Join           time.Duration
	ReorderJI      time.Duration
	ProjectLarger  time.Duration
	ProjectSmaller time.Duration
	Decluster      time.Duration
	Queue          time.Duration
	Total          time.Duration
	// Sched is the runtime scheduler's counter set for this query:
	// morsels executed on their home worker (where earlier phases ran
	// the same partition) versus morsels an idle worker stole. Zero for
	// serial runs.
	Sched SchedStats
	// CompressedCols counts the encoded join image columns the run's
	// fetches decoded, partition by partition; CompressedBytes the encoded
	// bytes they read (a block two image partitions share counts for
	// each); CompressedSavedBytes the raw bytes that traffic replaced
	// (accumulated per decoded span — bus traffic avoided, not storage);
	// DecodeTime the time spent inside block-decode loops, summed over
	// the workers' decode loops (not wall time: on a parallel run it can
	// exceed the wall time decoding adds). All zero unless the run
	// executed compressed (JoinQuery.Compression).
	CompressedCols       int64
	CompressedBytes      int64
	CompressedSavedBytes int64
	DecodeTime           time.Duration
	// Mem is the query's buffer accounting from the execution arena
	// (see RuntimeConfig.MemoryBudget): how many bytes the run drew
	// from it — leased scratch and the result columns alike — how many
	// of those were recycled buffers rather than fresh allocations, and
	// the peak bytes held at once. Serial runs lease from the same
	// process arena and report it too.
	Mem MemStats
}

// String renders the breakdown on one line, phases first, then the
// runtime counters a serial run leaves zero.
func (t Timing) String() string {
	us := func(d time.Duration) time.Duration { return d.Round(time.Microsecond) }
	s := fmt.Sprintf("scan=%v join=%v reorder=%v projL=%v projS=%v declust=%v queue=%v sched[%v] total=%v",
		us(t.Scan), us(t.Join), us(t.ReorderJI), us(t.ProjectLarger), us(t.ProjectSmaller),
		us(t.Decluster), us(t.Queue), t.Sched, us(t.Total))
	if t.CompressedCols > 0 {
		s += fmt.Sprintf(" comp[cols=%d saved=%dB decode=%v]",
			t.CompressedCols, t.CompressedSavedBytes, us(t.DecodeTime))
	}
	if t.Mem.Acquired > 0 {
		s += fmt.Sprintf(" mem[acq=%dB reuse=%dB high=%dB]", t.Mem.Acquired, t.Mem.Reused, t.Mem.HighWater)
	}
	return s
}

// MemStats is one query's execution-arena accounting: the total bytes
// of buffers the query drew from the arena, transients and result
// columns alike (Acquired), the portion served by recycled buffers
// (Reused), and the peak bytes held at any one time (HighWater) — the
// query's working-set size, the quantity a memory budget or spill tier
// reasons about.
type MemStats = mempool.LeaseStats

// Result is a completed project-join. Columns appear in result order:
// first the larger side's projections, then the smaller side's, named
// "<relation>.<column>".
//
// The columns are drawn from the execution arena — a runtime's, or for
// a serial run the process arena every runtime shares — and belong to
// the caller until Release hands them back for the next query to reuse;
// a column read after Release aliases another query's buffer. Never
// calling Release is safe — the columns are Go memory, garbage-collected
// like any slice, and the next query allocates afresh.
//
// Columns are read-only. A runtime DSM post-projection over join images
// (the u/u plan) whose every larger tuple matched exactly once — a
// key–foreign-key join — serves each raw larger column as a view of the
// larger relation's join image, cut to [:N:N]: shared with every such
// query, never drawn from or returned to the arena, and like the
// relation's own columns not to be mutated (see NewRelation).
type Result struct {
	N      int
	Names  []string
	Cols   [][]int32
	Timing Timing
	Plan   string
	// Workers records the engine that executed the run: 0 = the
	// paper's serial mode, n >= 1 = the morsel-driven executor with n
	// workers.
	Workers int
	// Compressed records the representation: true when the run's
	// fetches decoded block-compressed join images partition by
	// partition (a runtime u/u DSM post-projection under CompressionOn).
	Compressed bool
	// Trace holds the query's recorded span events when
	// JoinQuery.Trace was set (nil otherwise); render it with
	// Trace.WriteJSON or merge several with WriteTraces.
	Trace *Trace
	// runInfo owns the arena buffers behind Cols — each Cols[c] is one
	// of them, or a view of a join image column, cut to [:N:N], so an
	// append reallocates instead of writing into arena slack or the
	// image — until Release returns them.
	runInfo  *strategy.Result
	released bool
}

// Release returns the result columns to the arena they came from and sets
// Cols to nil; whatever the caller did to Cols in the meantime, the
// buffers go back whole. A column that is a view of a join image is left
// alone: the image outlives the query. Idempotent, not safe for use
// concurrent with readers of the columns.
func (r *Result) Release() {
	if r.released {
		return
	}
	r.released = true
	r.Cols = nil
	if r.runInfo != nil {
		r.runInfo.Release()
	}
}

// Column returns the result column with the given qualified name: the
// column itself, read-only (see Result), not a copy.
func (r *Result) Column(name string) ([]int32, error) {
	if r.released {
		return nil, fmt.Errorf("radixdecluster: Column(%q) on a released result", name)
	}
	for i, n := range r.Names {
		if n == name {
			return r.Cols[i], nil
		}
	}
	return nil, fmt.Errorf("radixdecluster: result has no column %q", name)
}

// Row copies row i of the result into a fresh slice.
func (r *Result) Row(i int) []int32 {
	if r.released {
		panic("radixdecluster: Row on a released result")
	}
	out := make([]int32, len(r.Cols))
	for c := range r.Cols {
		out[c] = r.Cols[c][i]
	}
	return out
}

// ProjectJoin executes the query.
func ProjectJoin(q JoinQuery) (*Result, error) {
	b, err := q.bind()
	if err != nil {
		return nil, err
	}
	cfg := q.config()
	// The strategy name doubles as the pprof query tag; the trace
	// label adds the relation names so Perfetto titles each query's
	// process track recognizably.
	cfg.QueryTag = b.st.String()
	if q.Trace {
		cfg.Trace = obs.NewTrace(fmt.Sprintf("%s %s⋈%s", b.st, q.Larger.Name, q.Smaller.Name))
	}
	res, err := b.run(cfg)
	if err != nil {
		return nil, err
	}
	return buildResult(q, res, cfg.Trace)
}

// config is the engine configuration a run of q plans and executes
// with. Its runtime is the query's explicit one: nil for serial runs
// (paper-mode queries never touch a runtime) and for parallel runs
// without one — those the engine places on the process default
// (strategy.DefaultRuntime, the instance DefaultRuntime wraps).
func (q JoinQuery) config() strategy.Config {
	hier := q.Hier
	if len(hier.Levels) == 0 && q.Runtime != nil {
		hier = q.Runtime.hier
	}
	cfg := strategy.Config{
		Hier: hier.internal(), Parallelism: q.Parallelism,
		Compress: q.Compression == CompressionOn && (q.Larger.compressed || q.Smaller.compressed),
	}
	if q.Parallelism != 0 && q.Runtime != nil {
		cfg.Runtime = q.Runtime.rt
	}
	return cfg
}

// boundJoin is a query bound to its strategy: the resolved strategy
// and the join sides in the storage model it reads. ProjectJoin runs
// it, PlanJoin only plans it — over the same sides, through the same
// plan step.
type boundJoin struct {
	st     Strategy
	lm, sm strategy.ProjMethod
	dl, ds strategy.DSMSide
	nl, ns strategy.NSMSide
}

func (q JoinQuery) bind() (boundJoin, error) {
	if q.Larger == nil || q.Smaller == nil {
		return boundJoin{}, fmt.Errorf("radixdecluster: both relations are required")
	}
	b := boundJoin{st: q.Strategy, lm: strategy.ProjMethod(q.LargerMethod), sm: strategy.ProjMethod(q.SmallerMethod)}
	if b.st == AutoStrategy {
		b.st = DSMPostDecluster
	}
	var err error
	switch b.st {
	case DSMPostDecluster, DSMPre:
		// Runtime DSM post-projection queries may join over the relations'
		// join images (Auto plans u/u over them); paper mode clusters per
		// query, as the paper does.
		images := b.st == DSMPostDecluster && q.Parallelism != 0
		if b.dl, err = dsmSide(q.Larger, q.LargerKey, q.LargerProject, images); err != nil {
			return b, err
		}
		b.ds, err = dsmSide(q.Smaller, q.SmallerKey, q.SmallerProject, images)
	case NSMPreHash, NSMPrePhash, NSMPostDecluster, NSMPostJive:
		if b.nl, err = nsmSide(q.Larger, q.LargerKey, q.LargerProject); err != nil {
			return b, err
		}
		b.ns, err = nsmSide(q.Smaller, q.SmallerKey, q.SmallerProject)
	default:
		err = fmt.Errorf("radixdecluster: unknown strategy %v", q.Strategy)
	}
	return b, err
}

func (b boundJoin) plan(cfg strategy.Config) (strategy.Plan, strategy.CostFn, error) {
	switch b.st {
	case DSMPostDecluster:
		return strategy.PlanDSMPost(b.dl, b.ds, b.lm, b.sm, cfg)
	case DSMPre:
		return strategy.PlanDSMPre(b.dl, b.ds, cfg)
	case NSMPreHash, NSMPrePhash:
		return strategy.PlanNSMPre(b.nl, b.ns, b.st == NSMPrePhash, cfg)
	case NSMPostDecluster:
		return strategy.PlanNSMPostDecluster(b.nl, b.ns, cfg)
	default:
		return strategy.PlanNSMPostJive(b.nl, b.ns, 0, cfg)
	}
}

func (b boundJoin) run(cfg strategy.Config) (*strategy.Result, error) {
	switch b.st {
	case DSMPostDecluster:
		return strategy.DSMPost(b.dl, b.ds, b.lm, b.sm, cfg)
	case DSMPre:
		return strategy.DSMPre(b.dl, b.ds, cfg)
	case NSMPreHash, NSMPrePhash:
		return strategy.NSMPre(b.nl, b.ns, b.st == NSMPrePhash, cfg)
	case NSMPostDecluster:
		return strategy.NSMPostDecluster(b.nl, b.ns, cfg)
	default:
		return strategy.NSMPostJive(b.nl, b.ns, 0, cfg)
	}
}

func dsmSide(r *Relation, key string, proj []string, image bool) (strategy.DSMSide, error) {
	keys, err := r.Column(key)
	if err != nil {
		return strategy.DSMSide{}, err
	}
	cols, err := r.columns(proj)
	if err != nil {
		return strategy.DSMSide{}, err
	}
	// An unselected side's oid column is its void head: a read-only view
	// of the shared dense slab.
	side := strategy.DSMSide{OIDs: bat.Dense(len(keys)), Keys: keys, Cols: cols, BaseN: r.Len()}
	if image {
		// Only a relation built WithCompression has encodings to give.
		side.JoinImage = func(o radix.Opts, compressed bool, e *exec.Engine) (strategy.Image, error) {
			return r.imgs.Image(e, key, keys, proj, cols, o, compressed && r.compressed)
		}
	}
	return side, nil
}

func nsmSide(r *Relation, key string, proj []string) (strategy.NSMSide, error) {
	// The NSM image of the relation — record scans will read the wide
	// rows, as a row store would — is built once per Relation and
	// shared by every query (nsmImage).
	names := r.ColumnNames()
	keyIdx := -1
	projIdx := make([]int, 0, len(proj))
	for i, n := range names {
		if n == key {
			keyIdx = i
		}
	}
	if keyIdx < 0 {
		return strategy.NSMSide{}, fmt.Errorf("relation %q has no column %q", r.Name, key)
	}
	for _, p := range proj {
		found := -1
		for i, n := range names {
			if n == p {
				found = i
			}
		}
		if found < 0 {
			return strategy.NSMSide{}, fmt.Errorf("relation %q has no column %q", r.Name, p)
		}
		projIdx = append(projIdx, found)
	}
	rel, err := r.nsmImage()
	if err != nil {
		return strategy.NSMSide{}, err
	}
	return strategy.NSMSide{Rel: rel, KeyCol: keyIdx, ProjCols: projIdx}, nil
}

func buildResult(q JoinQuery, res *strategy.Result, tr *obs.Trace) (*Result, error) {
	// A row-major result (pre-projection / NSM strategies) is decomposed
	// back into columns for the uniform public shape; first, because the
	// columns count in Timings.Mem.
	cols := res.Columns()
	tm := res.Timings
	out := &Result{
		N:          res.N,
		Workers:    res.Workers,
		Compressed: res.Compressed,
		Timing: Timing{
			Scan:                 tm.ByKind[exec.PhaseScan],
			Join:                 tm.ByKind[exec.PhaseJoin],
			ReorderJI:            tm.ByKind[exec.PhaseReorder],
			ProjectLarger:        tm.ByKind[exec.PhaseProjectLarger],
			ProjectSmaller:       tm.ByKind[exec.PhaseProjectSmaller],
			Decluster:            tm.ByKind[exec.PhaseDecluster],
			Queue:                tm.Queue(),
			Total:                tm.Total,
			Sched:                tm.Sched,
			CompressedCols:       tm.Comp.Cols,
			CompressedBytes:      tm.Comp.CompressedBytes,
			CompressedSavedBytes: tm.Comp.SavedBytes,
			DecodeTime:           tm.Comp.DecodeTime(),
			Mem:                  tm.Mem,
		},
		Plan:    res.Plan.String(),
		runInfo: res,
	}
	for _, n := range q.LargerProject {
		out.Names = append(out.Names, q.Larger.Name+"."+n)
	}
	for _, n := range q.SmallerProject {
		out.Names = append(out.Names, q.Smaller.Name+"."+n)
	}
	for _, buf := range cols {
		out.Cols = append(out.Cols, buf[:res.N:res.N])
	}
	if len(out.Cols) != len(out.Names) {
		return nil, fmt.Errorf("radixdecluster: internal: %d result columns for %d names", len(out.Cols), len(out.Names))
	}
	if tr != nil {
		out.Trace = &Trace{t: tr}
	}
	return out, nil
}

// Plan describes what the planner would do for a query — the plan
// ProjectJoin would execute for it — with the Appendix-A model's
// estimate of that plan, usable without running anything.
type Plan struct {
	// JoinBits, LargerBits, SmallerBits and WindowTuples are the planned
	// radix bits of the join clustering and of the two projection
	// phases' join-index (re-)clusterings, and the Radix-Decluster
	// insertion window — each 0 where the query's strategy and methods
	// have no such phase (an unsorted projection clusters nothing; a plan
	// without a decluster phase has no window).
	JoinBits     int
	LargerBits   int
	SmallerBits  int
	WindowTuples int
	// ModeledMs is the Appendix-A estimate of the planned strategy run
	// serially by a sole owner of the hierarchy.
	ModeledMs float64
	// Parallelism is the worker count AutoParallelism resolves to for
	// this query (1 = stay serial): min(runtime.GOMAXPROCS, the size of
	// JoinQuery.Runtime when one is named); 1 for inputs below the
	// executor's parallel threshold. What the query itself asks for
	// (JoinQuery.Parallelism) is in String's workers=.
	Parallelism int
	// ScalabilityLimit is the largest relation Radix-Decluster handles
	// efficiently on this hierarchy (§6: C²/(32·width²)).
	ScalabilityLimit int
	plan             strategy.Plan
}

// String returns the plan line Result.Plan carries when the query is
// run: bits, window, per-side methods, workers= as the run resolves
// JoinQuery.Parallelism, and compressed=true for compressed execution.
func (p *Plan) String() string { return p.plan.String() }

// PlanJoin runs the planner and the cost model for a query without
// executing it: it binds the query to the sides ProjectJoin would read
// (building and caching the NSM image an NSM strategy reads; join
// images, and the encodings in them, are built only by a run) and asks
// the strategy's own plan step.
// A query that names no Runtime is planned as the sole owner of the
// machine; the process default is not consulted — planning alone must
// not spin it up.
func PlanJoin(q JoinQuery) (*Plan, error) {
	b, err := q.bind()
	if err != nil {
		return nil, err
	}
	cfg := q.config()
	sp, cost, err := b.plan(cfg)
	if err != nil {
		return nil, err
	}
	par := runtime.GOMAXPROCS(0)
	if q.Runtime != nil {
		par = min(par, q.Runtime.Workers())
	}
	if q.Larger.Len()+q.Smaller.Len() < exec.MinParallelN {
		par = 1
	}
	m := costmodel.Model{H: cfg.Hier}
	return &Plan{
		JoinBits: sp.JoinBits, LargerBits: sp.LargerBits, SmallerBits: sp.SmallerBits,
		WindowTuples:     sp.Window,
		ModeledMs:        m.Millis(cost(m)),
		Parallelism:      par,
		ScalabilityLimit: core.ScalabilityLimit(cfg.Hier, 4),
		plan:             sp,
	}, nil
}
