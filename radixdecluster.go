// Package radixdecluster is a from-scratch Go reproduction of
// "Cache-Conscious Radix-Decluster Projections" (Manegold, Boncz,
// Nes, Kersten; CWI / VLDB 2004): cache-conscious equi-joins
// *including the projection columns*, on both decomposed (DSM) and
// row-wise (NSM) storage.
//
// The paper's headline result — reproduced by this library — is that
// for large joins the best strategy is DSM post-projection: first
// compute a join-index of matching [oid,oid] pairs with a Partitioned
// Hash-Join over radix-clustered inputs, then fetch the larger
// relation's projection columns through a partially Radix-Clustered
// join-index (cache-sized access regions), and fetch the smaller
// relation's columns in clustered order followed by Radix-Decluster —
// a single-pass, insertion-window-bounded merge-scatter that restores
// result order while keeping all random access inside the CPU cache.
//
// Entry points:
//
//   - ProjectJoin runs the paper's project-join query end to end with
//     a chosen (or planner-selected) strategy.
//   - Decluster, ClusterOIDs, SortOIDs and Fetch expose the core
//     column operators.
//   - DeclusterStrings runs the Section-5 variable-size variant into
//     slotted buffer pages.
//   - Pentium4 and Calibrate manage the memory-hierarchy description
//     that drives all planning.
//
// # Parallel execution
//
// There are two execution modes and every strategy runs in both.
// JoinQuery.Parallelism 0 — the default — is the paper's mode: the
// serial algorithms on the caller's goroutine, no runtime, every buffer
// drawn from the process's execution arena like a runtime query's
// (Result.Release hands the result columns back). Parallelism n >= 1
// runs the same phase pipeline
// as a lease on a shared Runtime (JoinQuery.Runtime, or the process
// default) with a NOMINAL n workers: one fixed worker set serves every
// concurrent query, pulling radix partitions and cache-sized cluster
// regions — independent units of work by the paper's decomposition,
// each confining its random access to a private cache-sized slice —
// from per-worker deques under admission control, and the query's
// buffers come from the runtime's arena. The nominal count alone fixes
// how the work is cut (each worker's Radix-Decluster insertion window
// is the cache budget divided by it), so the result bytes are identical for the same
// plan line in both modes, for every n, on a runtime of any size; only
// wall-clock, Timing.Queue / Sched / Mem and Result.Workers differ. A
// query whose join inputs total fewer than 16 Ki tuples runs the serial
// code either way and reports Workers 0. The plan lines differ in one
// place: a DSM post-projection query with Auto methods plans u/u over
// join images on a runtime, where paper mode applies §4.1 to the
// declared levels and plans c/d for columns beyond the cache (512 KB on
// the Pentium 4) — the same rows, listed in another order.
//
// AutoParallelism sets n to the runtime's size (at most
// runtime.GOMAXPROCS; serial when that is 1): the workers are shared
// between queries at morsel granularity, so a query's plan depends on
// the query, the hierarchy and the runtime's size and on nothing else
// the runtime is doing. PlanJoin asks the same planner without
// executing anything: Plan.String is the plan line a run of the query
// would report, Plan.Parallelism what AutoParallelism resolves to.
//
// Values are 4-byte integers and oids are dense uint32 record
// numbers, the paper's data model.
package radixdecluster

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"radixdecluster/internal/bat"
	"radixdecluster/internal/calibrator"
	"radixdecluster/internal/compress"
	"radixdecluster/internal/join"
	"radixdecluster/internal/mem"
	"radixdecluster/internal/nsm"
	"radixdecluster/internal/radix"
	"radixdecluster/internal/strategy"
)

// OID is a dense object identifier: record number in [0,N).
type OID = uint32

// CacheLevel describes one level of the memory hierarchy.
type CacheLevel struct {
	Name string
	// SizeBytes is the capacity (for a TLB: entries × page size).
	SizeBytes int
	// LineBytes is the transfer unit (for a TLB: the page size).
	LineBytes int
	// Assoc is the set-associativity (0 = fully associative).
	Assoc int
	// MissNanos is the random-miss latency; SeqNanos the effective
	// per-line cost under sequential (prefetched) access.
	MissNanos, SeqNanos float64
	// TLB marks address-translation levels.
	TLB bool
}

// Hierarchy is an ordered memory-hierarchy description, innermost
// level first. The zero value means "use Pentium4()". Everything the
// planner sizes — radix bits, cluster bits, the Radix-Decluster
// insertion window, clustering passes, the cost model, the admission
// ceiling of a runtime's memory budget — comes from Levels, the declared
// machine, and so does paper mode's u/u → c/u → c/d method switch
// (Figure 10c). A runtime DSM post-projection query plans u/u over its
// join images whatever the levels say.
type Hierarchy struct {
	// Levels are the declared levels; empty means Pentium4()'s.
	Levels []CacheLevel
}

// Pentium4 returns the paper's evaluation platform (§4): 16KB L1,
// 512KB L2, 64-entry TLB, 2.2GHz.
func Pentium4() Hierarchy {
	return fromInternal(mem.Pentium4())
}

// String renders the declared levels on one line.
func (h Hierarchy) String() string {
	var b strings.Builder
	for i, l := range h.internal().Levels {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%dKiB/%dB", l.Name, l.Size>>10, l.LineSize)
	}
	return b.String()
}

// Calibrate recovers the hierarchy parameters by running the
// Calibrator's footprint/stride sweeps against a simulation of spec,
// returning the recovered hierarchy — the §1.1 bootstrap path for
// machines without documented cache parameters.
func Calibrate(spec Hierarchy) (Hierarchy, error) {
	res, err := calibrator.Calibrate(spec.internal())
	if err != nil {
		return Hierarchy{}, err
	}
	page := 4096
	if tlb, ok := spec.internal().TLB(); ok {
		page = tlb.LineSize
	}
	return fromInternal(res.Hierarchy(page)), nil
}

func fromInternal(h mem.Hierarchy) Hierarchy {
	var out Hierarchy
	for _, l := range h.Levels {
		out.Levels = append(out.Levels, CacheLevel{
			Name: l.Name, SizeBytes: l.Size, LineBytes: l.LineSize, Assoc: l.Assoc,
			MissNanos: l.MissLatency, SeqNanos: l.SeqLatency, TLB: l.IsTLB,
		})
	}
	return out
}

func (h Hierarchy) internal() mem.Hierarchy {
	if len(h.Levels) == 0 {
		return mem.Pentium4()
	}
	out := mem.Hierarchy{ClockGHz: 1}
	for _, l := range h.Levels {
		out.Levels = append(out.Levels, mem.Level{
			Name: l.Name, Size: l.SizeBytes, LineSize: l.LineBytes, Assoc: l.Assoc,
			MissLatency: l.MissNanos, SeqLatency: l.SeqNanos, IsTLB: l.TLB,
		})
	}
	return out
}

// Validate reports structural problems with the hierarchy.
func (h Hierarchy) Validate() error { return h.internal().Validate() }

// Column is a named column of 4-byte integer values — the tail of a
// MonetDB [void,value] BAT.
type Column struct {
	Name   string
	Values []int32
}

// Relation is a DSM relation: equally long named columns.
type Relation struct {
	Name string
	tab  *bat.Table

	// nsmOnce caches the row-major image NSM strategies scan, so every
	// query over this relation — concurrent ones included — reads the
	// same record array (the identity of the NSM placement seed).
	nsmOnce sync.Once
	nsmRel  *nsm.Relation
	nsmErr  error

	// compressed marks relations built with WithCompression: a runtime
	// u/u DSM post-projection query running with CompressionOn projects
	// from block-compressed encodings of its join image's columns
	// (keyImage.encs). The raw column slices always coexist —
	// compression is an execution-format option, never a storage
	// replacement — so results are byte-identical either way.
	compressed bool

	// joinImgs holds, per join-key column, the relation radix-clustered
	// on it as the last runtime query asked (joinImage): built part by
	// part by the queries that need each part, read by every later one,
	// GC-owned — it outlives every query, so it is never drawn from a
	// runtime's arena, and a key-FK query's larger result columns are
	// views of its columns. Paper-mode queries cluster per query and
	// never build one.
	imgMu    sync.Mutex
	joinImgs map[string]*keyImage
}

// keyImage is one key column's join image, column-wise: the cluster
// offsets and the key hashes of radix.KeyOffsets/PermuteHashes for the
// radix field it was built for and whether those hashes are distinct
// (join.DistinctHashes, checked once at the build), image-order copies
// of the columns raw plans projected from it (cols) and block-compressed
// encodings of the image-order copies of the columns compressed plans
// projected (encs), each added by the first query that needs it. An
// encs entry is nil when the column's image-order copy did not shrink:
// that copy is then held raw in cols and compressed plans read it there.
type keyImage struct {
	join.Image
	o    radix.Opts
	cols map[string][]int32
	encs map[string]*compress.Encoded
}

// RelationOption configures NewRelationOpts.
type RelationOption func(*Relation)

// WithCompression lets CompressionOn queries run compressed: a runtime
// u/u DSM post-projection query adds block-compressed encodings of the
// image-order columns it projects to the relation's join image (counted
// in JoinImageBytes). An image-order column the encoder cannot shrink
// stays raw. Every other plan runs raw, and the relation holds no
// encoding outside its join images. Queries opt in per run via
// JoinQuery.Compression.
func WithCompression() RelationOption {
	return func(r *Relation) { r.compressed = true }
}

// NewRelation builds a relation from columns (not copied). The column
// slices must not be mutated once the relation has been queried:
// queries read the live slices (DSM strategies) and a row-major image
// cached on first NSM-strategy use (nsmImage), so post-query mutation
// would make the two storage views disagree. The same holds for the
// join images runtime queries build from them: a result column may be a
// view of one (see Result), and must not be mutated either.
func NewRelation(name string, cols ...Column) (*Relation, error) {
	bcols := make([]*bat.Column, len(cols))
	for i, c := range cols {
		bcols[i] = bat.NewColumn(c.Name, c.Values)
	}
	t, err := bat.NewTable(name, bcols...)
	if err != nil {
		return nil, err
	}
	return &Relation{Name: name, tab: t}, nil
}

// NewRelationOpts is NewRelation with options (the column slices are
// not copied; see NewRelation's no-mutation-after-query contract).
func NewRelationOpts(name string, cols []Column, opts ...RelationOption) (*Relation, error) {
	r, err := NewRelation(name, cols...)
	if err != nil {
		return nil, err
	}
	for _, o := range opts {
		o(r)
	}
	return r, nil
}

// Compressed reports whether the relation was built with
// WithCompression.
func (r *Relation) Compressed() bool { return r.compressed }

// Len returns the cardinality.
func (r *Relation) Len() int { return r.tab.Len() }

// Width returns the number of columns (the paper's ω).
func (r *Relation) Width() int { return r.tab.Width() }

// Column returns the named column's values (a view, not a copy; see
// NewRelation for the no-mutation-after-query contract).
func (r *Relation) Column(name string) ([]int32, error) {
	c, err := r.tab.Column(name)
	if err != nil {
		return nil, err
	}
	return c.Values, nil
}

// ColumnNames lists the column names in declaration order.
func (r *Relation) ColumnNames() []string {
	out := make([]string, r.tab.Width())
	for i := range out {
		out[i] = r.tab.ColumnAt(i).Name
	}
	return out
}

// nsmImage returns the relation's row-major (NSM) image — every
// column, declaration order — built once and shared by all queries.
func (r *Relation) nsmImage() (*nsm.Relation, error) {
	r.nsmOnce.Do(func() {
		names := r.ColumnNames()
		cols := make([][]int32, len(names))
		for i, n := range names {
			c, err := r.Column(n)
			if err != nil {
				r.nsmErr = err
				return
			}
			cols[i] = c
		}
		r.nsmRel, r.nsmErr = nsm.FromColumns(r.Name, cols...)
	})
	return r.nsmRel, r.nsmErr
}

// joinImage returns the key column's join image for o with the proj
// columns in image order. For a compressed plan (compressed) each
// projected column comes as the block-compressed encoding of its
// image-order copy (Image.ColsEnc, the raw entry nil), or raw where that
// copy does not shrink; other plans get raw copies only. Under the
// relation's lock it builds what the image lacks — all of it when the
// image was built for another radix field — so concurrent first queries
// build each part once; once the lock is released it reports each build
// through step: the clustering as "build-join-image", a column or an
// encoding as "build-image-column". The clustering is stable, so the pass split does
// not change its bytes: the image is keyed by the radix field alone. A
// projected key column is a column like any other: the image holds the
// key hashes the probe compares, not the keys.
func (r *Relation) joinImage(key string, proj []string, o radix.Opts, compressed bool, step func(string, time.Time, time.Time)) (strategy.Image, error) {
	type build struct {
		name       string
		start, end time.Time
	}
	var builds []build
	// Deferred before the lock, so it runs after the unlock.
	defer func() {
		for _, b := range builds {
			step(b.name, b.start, b.end)
		}
	}()
	r.imgMu.Lock()
	defer r.imgMu.Unlock()
	keys, err := r.Column(key)
	if err != nil {
		return strategy.Image{}, err
	}
	ki := r.joinImgs[key]
	if ki == nil || ki.o.Bits != o.Bits || ki.o.Ignore != o.Ignore {
		start := time.Now()
		offsets, err := radix.KeyOffsets(keys, o)
		if err != nil {
			return strategy.Image{}, err
		}
		ki = &keyImage{Image: join.Image{Hashes: radix.PermuteHashes(keys, o, offsets), Offsets: offsets},
			o: o, cols: map[string][]int32{}, encs: map[string]*compress.Encoded{}}
		ki.Distinct = join.DistinctHashes(&ki.Image, uint(o.Ignore+o.Bits))
		builds = append(builds, build{"build-join-image", start, time.Now()})
		if r.joinImgs == nil {
			r.joinImgs = make(map[string]*keyImage)
		}
		r.joinImgs[key] = ki
	}
	img := strategy.Image{Image: ki.Image}
	img.Cols = make([][]int32, len(proj))
	if compressed {
		img.ColsEnc = make([]*compress.Encoded, len(proj))
	}
	// The encodings this call builds are each made from one image-order
	// copy in scratch, reused column after column: no copy is allocated
	// per encoded column, and scratch is garbage once the call returns
	// (unless a copy that did not shrink keeps it).
	var scratch []int32
	for i, name := range proj {
		vals, err := r.Column(name)
		if err != nil {
			return strategy.Image{}, err
		}
		enc, tried := ki.encs[name]
		if compressed && !tried {
			start := time.Now()
			if scratch == nil {
				scratch = make([]int32, len(keys))
			}
			perm := radix.PermuteInto(scratch, keys, vals, o, ki.Offsets)
			if enc, err = compress.EncodeBest(perm); err != nil {
				return strategy.Image{}, err
			}
			if enc.Ratio() >= 1 {
				enc = nil
				if ki.cols[name] == nil {
					ki.cols[name], scratch = perm, nil
				}
			}
			ki.encs[name] = enc
			builds = append(builds, build{"build-image-column", start, time.Now()})
		}
		if compressed && enc != nil {
			img.ColsEnc[i] = enc
			continue
		}
		col := ki.cols[name]
		if col == nil {
			start := time.Now()
			col = radix.PermuteInto(make([]int32, len(keys)), keys, vals, o, ki.Offsets)
			ki.cols[name] = col
			builds = append(builds, build{"build-image-column", start, time.Now()})
		}
		img.Cols[i] = col
	}
	return img, nil
}

// JoinImageBytes reports the bytes the relation's join images hold, 0
// before the first runtime DSM post-projection query that plans u/u (the
// Auto plan; a forced non-u method clusters per query and builds none):
// per key column joined on, 4 per tuple of key hashes; 4 per tuple for
// each column held raw in image order — the columns raw plans projected
// from it (the key column too, once a query projects it); the encoded
// bytes (CompressedBytes) of each image-order column a compressed plan
// projected; plus 8 per partition offset. They live outside every
// runtime's arena and its MemoryBudget. A relation holds encodings in
// its join images only, so this counts every encoded byte it holds.
func (r *Relation) JoinImageBytes() int64 {
	r.imgMu.Lock()
	defer r.imgMu.Unlock()
	var n int64
	for _, ki := range r.joinImgs {
		n += 4*int64(len(ki.Hashes)) + 8*int64(len(ki.Offsets))
		for _, col := range ki.cols {
			n += 4 * int64(len(col))
		}
		for _, enc := range ki.encs {
			if enc != nil {
				n += int64(enc.CompressedBytes())
			}
		}
	}
	return n
}

func (r *Relation) columns(names []string) ([][]int32, error) {
	out := make([][]int32, len(names))
	for i, n := range names {
		c, err := r.Column(n)
		if err != nil {
			return nil, fmt.Errorf("relation %q: %w", r.Name, err)
		}
		out[i] = c
	}
	return out, nil
}
