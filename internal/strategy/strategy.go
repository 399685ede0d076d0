// Package strategy composes the substrate operators into the
// end-to-end project-join strategies the paper evaluates (§4):
//
//	SELECT larger.a1..aY, smaller.b1..bZ
//	FROM larger, smaller WHERE larger.key = smaller.key
//
// Strategies (Figure 10 legend):
//
//   - DSM post-projection ("DSM-post-decluster"): Partitioned
//     Hash-Join on the key columns makes a join-index; the larger
//     side's projections use one of unsorted/sorted/partial-cluster
//     (u/s/c, §4.1), the smaller side's unsorted or Radix-Decluster
//     (u/d).
//   - DSM pre-projection ("DSM-pre-phash"): the projection columns
//     are stitched into wide tuples during the scans and travel
//     through a partitioned hash-join.
//   - NSM pre-projection ("NSM-pre-phash"/"NSM-pre-hash"): record
//     scans extract [key|π] wide tuples, joined partitioned or naive.
//   - NSM post-projection with Radix-Decluster and with Jive-Join.
//
// Every strategy is assembled as a phase pipeline on the shared
// execution engine (internal/exec): the strategy's plan step makes the
// planner decisions (methods, radix bits, window, worker count,
// representation) into one Plan record, the strategy function lists
// the phases the record calls for, and the pipeline runs them —
// serially in the paper's single-threaded mode, or morsel-driven
// parallel on a runtime lease when the plan has workers — with
// byte-identical results for the same plan either way. Every run
// returns a phase-by-phase wall-clock breakdown and the plan it
// executed.
package strategy

import (
	"fmt"
	"slices"
	"time"

	"radixdecluster/internal/bat"
	"radixdecluster/internal/compress"
	"radixdecluster/internal/core"
	"radixdecluster/internal/costmodel"
	"radixdecluster/internal/exec"
	"radixdecluster/internal/join"
	"radixdecluster/internal/mem"
	"radixdecluster/internal/mempool"
	"radixdecluster/internal/obs"
	"radixdecluster/internal/radix"
)

// OID mirrors bat.OID.
type OID = bat.OID

// ProjMethod is a per-side projection method code of §4.1.
type ProjMethod byte

const (
	// Auto lets the planner pick: the Figure-10c u/u → c/u → c/d
	// switching behaviour, or u/u over join images (PlanDSMPost).
	Auto ProjMethod = 0
	// Unsorted: Positional-Joins straight from the join-index ("u").
	Unsorted ProjMethod = 'u'
	// SortedM: Radix-Sort the join-index first ("s"). Larger side only.
	SortedM ProjMethod = 's'
	// PartialCluster: partially Radix-Cluster the join-index ("c").
	// Larger side only.
	PartialCluster ProjMethod = 'c'
	// Declustered: clustered fetch + Radix-Decluster ("d"). Smaller
	// side only.
	Declustered ProjMethod = 'd'
)

func (m ProjMethod) String() string {
	if m == Auto {
		return "auto"
	}
	return string(rune(m))
}

// AutoParallelism runs the query on every worker its runtime has:
// min(runtime.GOMAXPROCS, the runtime's size).
const AutoParallelism = -1

// Config carries the hierarchy every planner rule is evaluated on and
// the execution choices of one run.
type Config struct {
	Hier mem.Hierarchy
	// Parallelism selects the execution engine for every strategy:
	// 0 = the paper's serial single-threaded mode (default), n >= 1 =
	// morsel-driven parallel execution (internal/exec) with a nominal n
	// workers, AutoParallelism = as many as the runtime has. All five
	// strategies run as phase pipelines on the
	// shared executor, and parallel runs produce output byte-identical
	// to serial runs of the same plan.
	Parallelism int
	// Runtime is the execution runtime parallel pipelines lease their
	// workers from: admission control bounds the number of concurrently
	// executing pipelines, all queries multiplex over one worker set
	// with fair morsel scheduling, and AutoParallelism resolves to the
	// runtime's size. Nil selects the process
	// default (DefaultRuntime), created on the first parallel run — a
	// lone query is that runtime serving one lease. Serial runs
	// (Parallelism 0) never involve a runtime; they lease from the
	// process arena every runtime shares. The result bytes of one
	// plan are identical in both modes and on every runtime.
	Runtime *exec.Runtime
	// Trace, when set, collects this run's span events (per-phase
	// spans with queue waits and morsel counts, per-morsel worker
	// spans with steal distances) into the given buffer; export it
	// with obs.WriteChrome. Tracing never changes
	// the result bytes. Nil — the default — costs nothing.
	Trace *obs.Trace
	// QueryTag names the query (the root package passes the strategy
	// name): the pprof goroutine label on runtimes built with
	// PprofLabels, and the strategy label of the runtime's
	// radixdecluster_plans_total counter.
	QueryTag string
	// Compress selects compressed execution where it can save traffic:
	// a DSM post-projection u/u plan over join images is handed encodings
	// of the image-order columns (Image.ColsEnc), and each partition's
	// morsel decodes its image range where it fetches from it
	// (exec.Engine.ProjectImages). Every other plan runs raw under it. False
	// (default) runs raw everywhere. Result bytes are identical either
	// way.
	Compress bool
}

func (c Config) hier() mem.Hierarchy {
	if len(c.Hier.Levels) == 0 {
		return mem.Pentium4()
	}
	return c.Hier
}

// Result is a completed project-join. Its result arrays (LargerCols,
// SmallerCols, Rows) are drawn from the query's arena kit and stay the
// holder's until Release hands them back; slices may carry spare
// capacity beyond their length. The one exception: a raw larger column
// of a key-FK u/u plan over join images is a read-only view of the
// larger side's join image (views), which Release leaves alone.
type Result struct {
	// N is the result cardinality.
	N int
	// LargerCols / SmallerCols hold the DSM result columns in result
	// order (DSM strategies).
	LargerCols  [][]int32
	SmallerCols [][]int32
	// Rows holds row-major result records (NSM and pre-projection
	// strategies); RowWidth is their width.
	Rows     []int32
	RowWidth int
	// home is the arena kit the result arrays came from and Release
	// returns them to, in both modes.
	home *mempool.Kit
	// views[c] is set where LargerCols[c] is the larger join image's
	// column itself (exec.ImageProjection.Views), not a result array.
	views []bool
	// Timings is the pipeline's per-phase breakdown and counters.
	Timings exec.Timings
	// Plan is the plan the run executed.
	Plan
}

// run executes the assembled pipeline and completes the result with
// its timings and the kit its arrays were drawn from.
func (r *Result) run(pl *exec.Pipeline) (*Result, error) {
	pl.Engine().CountPlan(r.Methods())
	var err error
	if r.Timings, err = pl.Execute(); err != nil {
		return nil, err
	}
	r.home = pl.Engine().Home()
	return r, nil
}

// Columns returns the result column-wise in result order, the larger
// side's projections first. A row-major result is decomposed on the
// first call — each column a fresh result array, the row array handed
// back to the arena — and the Result is columnar from then on (all
// columns in LargerCols, Rows nil); Timings.Mem grows by the columns.
// Not to be called after Release.
func (r *Result) Columns() [][]int32 {
	if r.LargerCols == nil && r.SmallerCols == nil && (r.Rows != nil || r.RowWidth > 0) {
		// The pipeline's lease is closed: a lease of its own books the
		// columns, and its kit is their home.
		var l *mempool.Lease
		if r.home != nil {
			l = r.home.Pool().NewLease()
		}
		cols := make([][]int32, r.RowWidth)
		for c := range cols {
			col := mempool.Own[int32](l, r.N)
			for i := range col {
				col[i] = r.Rows[i*r.RowWidth+c]
			}
			cols[c] = col
		}
		mempool.Recycle(r.home, r.Rows)
		if l != nil {
			// The query held the row array and the columns at once, which
			// may be its new peak.
			st := l.Stats()
			r.Timings.Mem.Acquired += st.Acquired
			r.Timings.Mem.Reused += st.Reused
			r.Timings.Mem.HighWater = max(r.Timings.Mem.HighWater, st.HighWater+int64(cap(r.Rows))*4)
			r.home = l.Kit()
			l.Release()
		}
		r.LargerCols, r.Rows = cols, nil
	}
	return slices.Concat(r.LargerCols, r.SmallerCols)
}

// Release hands the result arrays back to the kit they were drawn from
// and drops the Result's references to them. The holder must not read
// them afterwards: the next query overwrites them. A larger column that
// is a view of the join image is never handed to the kit: the image
// outlives the query. Idempotent; never calling it only costs the next
// query its arena hits.
func (r *Result) Release() {
	for c, col := range r.LargerCols {
		if c < len(r.views) && r.views[c] {
			continue
		}
		mempool.Recycle(r.home, col)
	}
	for _, col := range r.SmallerCols {
		mempool.Recycle(r.home, col)
	}
	mempool.Recycle(r.home, r.Rows)
	r.LargerCols, r.SmallerCols, r.Rows, r.views = nil, nil, nil, nil
}

// DSMSide describes one join side for the DSM strategies: the
// (possibly selected) join input [OIDs, Keys] plus the base
// projection columns the oids point into.
type DSMSide struct {
	OIDs []OID
	Keys []int32
	// Cols are the π base projection columns (each of base length).
	Cols [][]int32
	// BaseN is the base-table cardinality; oids lie in [0, BaseN).
	BaseN int
	// JoinImage, when set on both sides, is DSMPost's join input — and
	// what it projects — clustered ahead of the query, held outside it and
	// shared with other queries, so the query never clusters. Auto plans
	// u/u over it, and DSMPost reads it only for a u/u plan. For radix
	// field o it returns the Image whose Hashes and Offsets are
	// radix.PermuteHashes(Keys, o, …) and radix.KeyOffsets(Keys, o), and
	// whose Cols[c] holds the values Cols[c][OIDs[i]] in that order. A
	// compressed plan (compressed) may be given ColsEnc[c], an encoding of
	// those values, in place of Cols[c]; any other plan gets Cols only. It
	// reports each part it had to build, once built, through step. DSMPost
	// never writes into it; a key-FK result's raw larger columns are views
	// of it (Result.views).
	JoinImage func(o radix.Opts, compressed bool, step func(name string, start, end time.Time)) (Image, error)
}

// Image is a side's join image as DSMPost reads it: the clustered join
// input, and the projection columns in the same order — each raw in Cols
// or, for a compressed plan, encoded in ColsEnc with its Cols entry nil.
type Image = exec.Image

func (s DSMSide) validate(name string) error {
	if len(s.OIDs) != len(s.Keys) {
		return fmt.Errorf("strategy: %s: %d oids vs %d keys", name, len(s.OIDs), len(s.Keys))
	}
	if s.BaseN <= 0 && len(s.OIDs) > 0 {
		return fmt.Errorf("strategy: %s: BaseN not set", name)
	}
	for c, col := range s.Cols {
		if len(col) != s.BaseN {
			return fmt.Errorf("strategy: %s: column %d has %d values, want BaseN=%d", name, c, len(col), s.BaseN)
		}
	}
	return nil
}

// validateDSM checks both sides of a DSM strategy.
func validateDSM(larger, smaller DSMSide) error {
	if err := larger.validate("larger"); err != nil {
		return err
	}
	return smaller.validate("smaller")
}

// resolveLarger picks the larger-side method (§4.1, Figure 8): fall
// back to unsorted while one column stays cache-resident under random
// access (baseN*4 <= c, the declared last cache level); beyond that,
// partial-cluster for few projection columns and full sort for many (the
// Figure-8 crossover at π ≈ 16), since the sort is paid once but helps
// every column.
func resolveLarger(m ProjMethod, pi, baseN, c int) ProjMethod {
	if m != Auto {
		return m
	}
	if pi == 0 || baseN*4 <= c {
		return Unsorted
	}
	if pi > 16 {
		return SortedM
	}
	return PartialCluster
}

// resolveSmaller picks the smaller-side method: unsorted while the
// columns stay cache-resident (resolveLarger's reading of it),
// Radix-Decluster beyond (§4.1: "Radix-Decluster is to be used only for
// the second (smaller) projection table, with unsorted processing as
// the only alternative").
func resolveSmaller(m ProjMethod, pi, baseN, c int) ProjMethod {
	if m != Auto {
		return m
	}
	if pi == 0 || baseN*4 <= c {
		return Unsorted
	}
	return Declustered
}

// PlanDSMPost is DSMPost's plan step. Everything it sizes — the join's
// radix bits, the cluster bits of a c or d side, the insertion window,
// and the shape the cost prices (result cardinality ≈ the larger input,
// π = the wider projection list, the c/d formula's bits and window,
// whatever the methods: the model has no formula for the others) — reads
// the declared levels. Auto picks the methods two ways. When both sides
// carry a JoinImage (the root attaches one to runtime queries only) it
// plans u/u: over join images the larger side's fetch is sequential and
// the smaller side's stays inside one partition, so the premise of the
// §4.1 switch — u fetches a column that outgrows the cache at random —
// no longer holds. Otherwise the §4.1 rule runs on the declared last
// cache level (resolveLarger, resolveSmaller). The plan is compressed
// only over join images (overImages): there each partition's morsel
// decodes its image range where it fetches from it
// (exec.Engine.ProjectImages), with the raw plan's methods and bits. Any
// other plan would have to decode whole base-order columns next to the
// raw arrays they copy, so it runs raw.
func PlanDSMPost(larger, smaller DSMSide, lm, sm ProjMethod, cfg Config) (Plan, CostFn, error) {
	if err := validateDSM(larger, smaller); err != nil {
		return Plan{}, nil, err
	}
	h := cfg.hier()
	c := h.LLC().Size
	p := Plan{JoinBits: join.PlanBits(len(smaller.OIDs), 4, c)}
	window := core.PlanWindow(h, 4)

	nJI := max(len(larger.OIDs), len(smaller.OIDs))
	baseN := max(larger.BaseN, smaller.BaseN)
	bits := max(1, radix.OptimalBits(baseN, 4, c))
	pi := max(1, len(larger.Cols), len(smaller.Cols))
	cost := func(m costmodel.Model) costmodel.Cost {
		return costmodel.DSMPostDecluster(m, nJI, baseN, 4, bits, pi, window)
	}
	cfg.decide(&p, len(larger.OIDs)+len(smaller.OIDs))

	if larger.JoinImage != nil && smaller.JoinImage != nil {
		if lm == Auto {
			lm = Unsorted
		}
		if sm == Auto {
			sm = Unsorted
		}
	}
	p.LargerMethod = resolveLarger(lm, len(larger.Cols), larger.BaseN, c)
	p.SmallerMethod = resolveSmaller(sm, len(smaller.Cols), smaller.BaseN, c)
	switch p.LargerMethod {
	case Unsorted, SortedM:
	case PartialCluster:
		p.LargerBits = radix.OptimalBits(larger.BaseN, 4, c)
	default:
		return Plan{}, nil, fmt.Errorf("strategy: larger-side method %q (want u, s or c)", p.LargerMethod)
	}
	switch p.SmallerMethod {
	case Unsorted:
	case Declustered:
		p.Window = window
		p.SmallerBits = declusterBits(smaller.BaseN, 4, c, window)
	default:
		return Plan{}, nil, fmt.Errorf("strategy: smaller-side method %q (want u or d)", p.SmallerMethod)
	}
	p.Compressed = cfg.Compress && overImages(larger, smaller, p)
	return p, cost, nil
}

// overImages reports whether the plan joins over the sides' join images:
// both sides carry one and both methods are u.
func overImages(larger, smaller DSMSide, p Plan) bool {
	return larger.JoinImage != nil && smaller.JoinImage != nil &&
		p.LargerMethod == Unsorted && p.SmallerMethod == Unsorted
}

// DSMPost runs the paper's headline strategy: DSM post-projection
// with the given per-side methods (Auto to let the planner choose).
// The assembly is a single phase pipeline; the plan selects the engine
// the phases execute on. A u/u plan over join images is one phase,
// probe-fetch-images; a compressed plan, which is over join images,
// decodes inside it.
func DSMPost(larger, smaller DSMSide, lm, sm ProjMethod, cfg Config) (*Result, error) {
	cfg.Runtime = cfg.rt()
	p, _, err := PlanDSMPost(larger, smaller, lm, sm, cfg)
	if err != nil {
		return nil, err
	}
	h := cfg.hier()
	// The larger key column is the query's affinity identity: concurrent
	// queries joining the same sides home the same partitions on the
	// same workers.
	pl := cfg.pipeline(p, exec.AffinitySeed(larger.Keys, len(larger.OIDs), false))
	defer pl.Close()
	res := &Result{Plan: p}

	// Over the sides' join images (a u/u plan with both images) the
	// query is one phase: each radix partition is probed and projected in
	// one morsel (exec.Engine.ProjectImages). The clustering half of the
	// Partitioned Hash-Join is a lookup, no phase reads a key column, the
	// larger side's reads are sequential and the smaller side's stay
	// inside one partition's range; a compressed plan decodes each
	// partition's range where it reads it. A key-FK join's raw larger
	// columns are the larger image's own (Result.views).
	if overImages(larger, smaller, p) {
		pl.Then(exec.PhaseJoin, "probe-fetch-images", func(e *exec.Engine) error {
			o := joinOpts(p.JoinBits, h)
			imgs, err := sideImages(e, larger, smaller, p.Compressed, o)
			if err != nil {
				return err
			}
			pr, err := e.ProjectImages(&imgs[0], &imgs[1], uint(o.Ignore+o.Bits))
			if err != nil {
				return err
			}
			res.N, res.LargerCols, res.SmallerCols, res.views = pr.N, pr.Larger, pr.Smaller, pr.Views
			return nil
		})
		return res.run(pl)
	}

	// Phase 1: join-index via Partitioned Hash-Join on the key BATs,
	// clustered per query, as paper mode does.
	var ji *join.Index
	pl.Then(exec.PhaseJoin, "partitioned-hash-join", func(e *exec.Engine) error {
		var err error
		ji, err = e.PartitionedJoin(larger.OIDs, larger.Keys, smaller.OIDs, smaller.Keys, joinOpts(p.JoinBits, h))
		if err != nil {
			return err
		}
		res.N = ji.Len()
		return nil
	})

	// Phase 2: larger-side reordering — it fixes the result order. Each
	// intermediate (the join-index, the two reordered oid columns, each
	// clustered fetch) goes back to the query's kit right after the phase
	// that reads it last (exec.Return), so the kit holds the pipeline's
	// peak live set, not the sum of its intermediates.
	var largerOIDs, smallerInResultOrder []OID
	switch p.LargerMethod {
	case Unsorted:
		// Result order = join output order; nothing to reorder. The
		// fetch-larger phase below picks the join-index up directly.
	case SortedM:
		pl.Then(exec.PhaseReorder, "radix-sort-join-index", func(e *exec.Engine) error {
			srt, err := e.SortOIDPairs(ji.Larger, ji.Smaller, h)
			if err != nil {
				return err
			}
			exec.Return(e, ji.Larger, ji.Smaller)
			largerOIDs, smallerInResultOrder, ji = srt.Key, srt.Other, nil
			return nil
		})
	case PartialCluster:
		pl.Then(exec.PhaseReorder, "partial-cluster-join-index", func(e *exec.Engine) error {
			cl, err := e.ClusterOIDPairs(ji.Larger, ji.Smaller, clusterOpts(p.LargerBits, larger.BaseN))
			if err != nil {
				return err
			}
			exec.Return(e, ji.Larger, ji.Smaller)
			largerOIDs, smallerInResultOrder, ji = cl.Key, cl.Other, nil
			return nil
		})
	}
	pl.Then(exec.PhaseProjectLarger, "fetch-larger", func(e *exec.Engine) error {
		if p.LargerMethod == Unsorted {
			largerOIDs, smallerInResultOrder, ji = ji.Larger, ji.Smaller, nil
		}
		var err error
		res.LargerCols, err = e.FetchMany(larger.Cols, largerOIDs)
		exec.Return(e, largerOIDs)
		largerOIDs = nil
		return err
	})

	// Phase 3: smaller-side projections.
	switch p.SmallerMethod {
	case Unsorted:
		pl.Then(exec.PhaseProjectSmaller, "fetch-smaller", func(e *exec.Engine) error {
			var err error
			res.SmallerCols, err = e.FetchMany(smaller.Cols, smallerInResultOrder)
			exec.Return(e, smallerInResultOrder)
			return err
		})
	case Declustered:
		var cl *core.Clustered
		pl.Then(exec.PhaseReorder, "recluster-smaller", func(e *exec.Engine) error {
			var err error
			cl, err = e.ClusterForDecluster(smallerInResultOrder, clusterOpts(p.SmallerBits, smaller.BaseN))
			exec.Return(e, smallerInResultOrder)
			smallerInResultOrder = nil
			return err
		})
		res.SmallerCols = make([][]int32, len(smaller.Cols))
		for k := range smaller.Cols {
			var cv []int32
			pl.Then(exec.PhaseProjectSmaller, "fetch-clustered", func(e *exec.Engine) error {
				var err error
				cv, err = e.Clustered(smaller.Cols[k], cl.SmallerOIDs, cl.Borders)
				return err
			})
			pl.Then(exec.PhaseDecluster, "radix-decluster", func(e *exec.Engine) error {
				var err error
				res.SmallerCols[k], err = e.Decluster(cv, cl.ResultPos, cl.Borders, p.Window)
				exec.Return(e, cv)
				if k == len(smaller.Cols)-1 {
					exec.Return(e, cl.SmallerOIDs, cl.ResultPos)
				}
				return err
			})
		}
	}
	return res.run(pl)
}

// sideImages returns the sides' join images for radix field o, checked
// against the sides — a raw plan's without encodings. Whatever a side's
// image lacked is built as a step of the running phase.
func sideImages(e *exec.Engine, larger, smaller DSMSide, compressed bool, o radix.Opts) ([2]Image, error) {
	var imgs [2]Image
	for i, s := range [2]DSMSide{larger, smaller} {
		img, err := s.JoinImage(o, compressed, e.Step)
		if err != nil {
			return imgs, err
		}
		n := len(s.OIDs)
		if len(img.Hashes) != n || len(img.Offsets) != 1<<o.Bits+1 {
			return imgs, fmt.Errorf("strategy: join image holds %d tuples in %d partitions, want %d in %d",
				len(img.Hashes), len(img.Offsets)-1, n, 1<<o.Bits)
		}
		if len(img.Cols) != len(s.Cols) {
			return imgs, fmt.Errorf("strategy: join image holds %d columns, want %d", len(img.Cols), len(s.Cols))
		}
		if !compressed {
			img.ColsEnc = nil
		}
		for c, col := range img.Cols {
			var enc *compress.Encoded
			if c < len(img.ColsEnc) {
				enc = img.ColsEnc[c]
			}
			if col == nil && (enc == nil || enc.Len() != n) {
				return imgs, fmt.Errorf("strategy: join image column %d is neither raw nor a %d-value encoding", c, n)
			}
		}
		imgs[i] = img
	}
	return imgs, nil
}

// rowsCost is the pre-projection strategies' cost (DSM-pre and both
// NSM-pre variants): nL/nS input cardinalities, lw/sw wide-tuple widths
// in fields, bits the join partitioning fan-out (0 = naive hash join);
// the result cardinality is estimated as the larger input.
func rowsCost(nL, nS, lw, sw, bits int) CostFn {
	return func(m costmodel.Model) costmodel.Cost {
		return costmodel.PreProjectionRows(m, nL, nS, lw*4, sw*4, bits, nL)
	}
}

// PlanDSMPre is DSMPre's plan step.
func PlanDSMPre(larger, smaller DSMSide, cfg Config) (Plan, CostFn, error) {
	if err := validateDSM(larger, smaller); err != nil {
		return Plan{}, nil, err
	}
	lw, sw := 1+len(larger.Cols), 1+len(smaller.Cols)
	p := Plan{
		LargerMethod: 'p', SmallerMethod: 'p',
		JoinBits: join.PlanBits(len(smaller.OIDs), sw*4, cfg.hier().LLC().Size),
	}
	cost := rowsCost(len(larger.OIDs), len(smaller.OIDs), lw, sw, p.JoinBits)
	cfg.decide(&p, len(larger.OIDs)+len(smaller.OIDs))
	return p, cost, nil
}

// DSMPre runs DSM pre-projection ("DSM-pre-phash"): the scans stitch
// [key|π] wide tuples out of the columns (column-at-a-time gathers
// through the selection oids), and the wide tuples travel through a
// partitioned hash-join.
func DSMPre(larger, smaller DSMSide, cfg Config) (*Result, error) {
	cfg.Runtime = cfg.rt()
	p, _, err := PlanDSMPre(larger, smaller, cfg)
	if err != nil {
		return nil, err
	}
	lw, sw := 1+len(larger.Cols), 1+len(smaller.Cols)
	pl := cfg.pipeline(p, exec.AffinitySeed(larger.Keys, len(larger.OIDs), false))
	defer pl.Close()
	res := &Result{Plan: p}

	var lRows, sRows []int32
	pl.Then(exec.PhaseScan, "stitch-wide-tuples", func(e *exec.Engine) error {
		var err error
		if lRows, err = e.StitchRows(larger.Keys, larger.Cols, larger.OIDs); err != nil {
			return err
		}
		sRows, err = e.StitchRows(smaller.Keys, smaller.Cols, smaller.OIDs)
		return err
	})
	pl.Then(exec.PhaseJoin, "partitioned-rows-join", func(e *exec.Engine) error {
		rr, err := e.PartitionedRowsJoin(lRows, lw, 0, sRows, sw, 0, joinOpts(p.JoinBits, cfg.hier()))
		exec.Return(e, lRows, sRows)
		if err != nil {
			return err
		}
		res.Rows, res.RowWidth = rr.Rows, rr.Width
		res.N = rr.Len()
		return nil
	})
	return res.run(pl)
}
