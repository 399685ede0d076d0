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
// a plain allocation. Parallelism n >= 1 runs the same phase pipeline
// as a lease on a shared Runtime (JoinQuery.Runtime, or the process
// default) with a NOMINAL n workers: one fixed worker set serves every
// concurrent query, pulling radix partitions and cache-sized cluster
// regions — independent units of work by the paper's decomposition,
// each confining its random access to a private cache-sized slice —
// from per-worker deques under admission control, and the query's
// buffers come from the runtime's arena (Result.Release hands the
// result columns back). The nominal count alone fixes how the work is
// cut (each worker's Radix-Decluster insertion window is the cache
// budget divided by it), so the result bytes are identical in both
// modes, for every n, on a runtime of any size; only wall-clock,
// Timing.Queue / Sched / Mem and Result.Workers differ. A query whose
// join inputs total fewer than 16 Ki tuples runs the serial code either
// way and reports Workers 0.
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

	"radixdecluster/internal/bat"
	"radixdecluster/internal/calibrator"
	"radixdecluster/internal/compress"
	"radixdecluster/internal/mem"
	"radixdecluster/internal/nsm"
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
// level first. The zero value means "use Pentium4()".
//
// The planner reads it two ways. Everything it SIZES — radix bits,
// cluster bits, the Radix-Decluster insertion window, clustering
// passes, the cost model, the admission ceiling of a runtime's memory
// budget — comes from Levels, the declared machine. The one thing it SWITCHES on — whether
// a projection column stays cache-resident under random access, i.e.
// which side of Figure 10c's u/u → c/u → c/d switch a DSM
// post-projection query is on — comes from ResidentBytes.
type Hierarchy struct {
	// Levels are the declared levels; empty means Pentium4()'s.
	Levels []CacheLevel
	// ResidentBytes is the largest footprint one column may have and
	// still be fetched unsorted (method u): 0 means the last declared
	// cache level's size — the paper's rule on the paper's machine.
	// HostHierarchy sets it to the host's real last-level cache. A
	// compressed plan reads it the same way: it is the raw plan with its
	// encoded inputs decoded into raw columns first.
	ResidentBytes int
}

// Pentium4 returns the paper's evaluation platform (§4): 16KB L1,
// 512KB L2, 64-entry TLB, 2.2GHz.
func Pentium4() Hierarchy {
	return fromInternal(mem.Pentium4())
}

// HostHierarchy returns the description a serving process plans with:
// Pentium4()'s declared levels — what every radix-bit, window and
// cost-model decision is tuned and measured on — with ResidentBytes set
// to the host's last-level cache size as Linux sysfs reports it (read
// once per process; 0, i.e. plain Pentium4(), where sysfs is missing or
// masked). cmd/joinserve and cmd/joinrun build their runtime with it;
// the library default stays Pentium4().
func HostHierarchy() Hierarchy {
	h := Pentium4()
	h.ResidentBytes = calibrator.DetectLLCBytes()
	return h
}

// Residency returns the planner's residency threshold for h in bytes
// and where it comes from: "sysfs" when ResidentBytes is the host's
// detected last-level cache size (HostHierarchy), "declared" when it is
// the last declared cache level's or a number the caller wrote.
func (h Hierarchy) Residency() (bytes int, source string) {
	if h.ResidentBytes > 0 {
		if h.ResidentBytes == calibrator.DetectLLCBytes() {
			return h.ResidentBytes, "sysfs"
		}
		return h.ResidentBytes, "declared"
	}
	caches := h.internal().Caches()
	return caches[len(caches)-1].Size, "declared"
}

// String renders the description on one line: the declared levels,
// then the residency threshold and its source.
func (h Hierarchy) String() string {
	var b strings.Builder
	for _, l := range h.internal().Levels {
		fmt.Fprintf(&b, "%s=%dKiB/%dB ", l.Name, l.Size>>10, l.LineSize)
	}
	bytes, source := h.Residency()
	fmt.Fprintf(&b, "resident=%dKiB (%s)", bytes>>10, source)
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
	out := Hierarchy{ResidentBytes: h.ResidentBytes}
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
		out := mem.Pentium4()
		out.ResidentBytes = h.ResidentBytes
		return out
	}
	out := mem.Hierarchy{ClockGHz: 1, ResidentBytes: h.ResidentBytes}
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

	// compressed marks relations built with WithCompression: queries
	// running with CompressionOn decode block-compressed column images,
	// built lazily on the first such query and shared by all queries
	// (like the NSM image). The raw column slices always coexist —
	// compression is an execution-format option, never a storage
	// replacement — so results are byte-identical either way.
	compressed bool
	encOnce    sync.Once
	colEnc     map[string]*compress.Encoded
	encErr     error
	recOnce    sync.Once
	recEnc     *compress.Encoded
	recErr     error
}

// RelationOption configures NewRelationOpts.
type RelationOption func(*Relation)

// WithCompression builds block-compressed images of the relation's
// columns (and, for NSM strategies, its record image) lazily on the
// first CompressionOn query. Columns the encoder cannot shrink simply
// stay raw-only. Queries opt in per run via JoinQuery.Compression.
func WithCompression() RelationOption {
	return func(r *Relation) { r.compressed = true }
}

// NewRelation builds a relation from columns (not copied). The column
// slices must not be mutated once the relation has been queried:
// queries read the live slices (DSM strategies) and a row-major image
// cached on first NSM-strategy use (nsmImage), so post-query mutation
// would make the two storage views disagree.
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

// encodings returns the relation's per-column block-compressed images
// (nil for relations built without WithCompression), building them on
// first use. Incompressible or empty columns have no entry.
func (r *Relation) encodings() (map[string]*compress.Encoded, error) {
	if !r.compressed {
		return nil, nil
	}
	r.encOnce.Do(func() {
		r.colEnc = make(map[string]*compress.Encoded, r.Width())
		for _, n := range r.ColumnNames() {
			vals, err := r.Column(n)
			if err != nil {
				r.encErr = err
				return
			}
			if len(vals) == 0 {
				continue
			}
			e, err := compress.EncodeBest(vals)
			if err != nil {
				r.encErr = err
				return
			}
			if e.Ratio() < 1 {
				r.colEnc[n] = e
			}
		}
	})
	return r.colEnc, r.encErr
}

// recordEncoding returns the block-compressed image of the relation's
// row-major record array (nil when absent or incompressible), built on
// first NSM-strategy compressed use.
func (r *Relation) recordEncoding() (*compress.Encoded, error) {
	if !r.compressed {
		return nil, nil
	}
	r.recOnce.Do(func() {
		rel, err := r.nsmImage()
		if err != nil {
			r.recErr = err
			return
		}
		if len(rel.Data) == 0 {
			return
		}
		e, err := compress.EncodeBest(rel.Data)
		if err != nil {
			r.recErr = err
			return
		}
		if e.Ratio() < 1 {
			r.recEnc = e
		}
	})
	return r.recEnc, r.recErr
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
