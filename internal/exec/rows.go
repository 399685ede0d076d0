package exec

// Parallel operators over row-major (NSM / wide-tuple) data: the
// radix-clustering of whole records, the payload-carrying
// pre-projection joins, the wide-tuple stitch of DSM pre-projection,
// the record scans and gathers of the NSM strategies, and the row
// variant of Radix-Decluster. Morsels are
// contiguous record ranges (scans, stitches, probes), partitions
// (joins), or cluster groups (gathers, decluster) — each writing a
// disjoint slice of the output, so every operator reproduces its
// serial counterpart byte for byte.

import (
	"fmt"
	"sync/atomic"

	"radixdecluster/internal/bat"
	"radixdecluster/internal/core"
	"radixdecluster/internal/join"
	"radixdecluster/internal/mempool"
	"radixdecluster/internal/nsm"
	"radixdecluster/internal/radix"
)

// checkRowsInput mirrors the rows validation of internal/join and
// internal/radix so the parallel bodies reject exactly what the serial
// code would.
func checkRowsInput(pkg string, rows []int32, width, key int) error {
	if width <= 0 || len(rows)%width != 0 {
		return fmt.Errorf("%s: %d values is not a multiple of width %d", pkg, len(rows), width)
	}
	if key < 0 || key >= width {
		return fmt.Errorf("%s: key column %d out of range [0,%d)", pkg, key, width)
	}
	return nil
}

// ClusterRows is the parallel equivalent of radix.ClusterRows: it
// radix-clusters width-wide records on hash(record[keyCol]) with the
// same two-level chunked count-then-scatter as ClusterOIDPairs, moving
// whole records — the pre-projection "extra luggage" — and produces
// the identical arrangement and offsets.
func (e *Engine) ClusterRows(rows []int32, width, keyCol int, o radix.Opts) (*radix.RowsResult, error) {
	if err := checkRowsInput("radix: ClusterRows", rows, width, keyCol); err != nil {
		return nil, err
	}
	n := len(rows) / width
	if e.serial(n) || !scatterable(o.Bits) {
		return radix.ClusterRows(rows, width, keyCol, o)
	}
	if err := o.Validate(); err != nil {
		return nil, err
	}
	// The clustered records are a join input, leased like the
	// intermediate a two-level fan-out scatters through first.
	out := mempool.Slice[int32](e.mem(), len(rows))
	buf := [2][]int32{out}
	if o.Bits > maxFirstPassBits {
		buf = [2][]int32{mempool.Slice[int32](e.mem(), len(rows)), out}
	}
	count, scatter := radix.RowKernels(rows, width, keyCol, buf)
	return &radix.RowsResult{Rows: out, Width: width, Offsets: e.scatter2(n, o, count, scatter)}, nil
}

// PartitionedRowsJoin is the pre-projection Partitioned Hash-Join over
// wide tuples, the parallel equivalent of join.PartitionedRows: both
// wide-tuple inputs are radix-clustered in parallel, partition pairs
// are probed as morsels, and the per-partition result rows are stitched
// in partition order — the order the serial loop appends them.
func (e *Engine) PartitionedRowsJoin(larger []int32, lw, lkey int, smaller []int32, sw, skey int, o radix.Opts) (*join.RowsResult, error) {
	if err := checkRowsInput("join", larger, lw, lkey); err != nil {
		return nil, err
	}
	if err := checkRowsInput("join", smaller, sw, skey); err != nil {
		return nil, err
	}
	if e.serial(len(larger)/lw + len(smaller)/sw) {
		return join.PartitionedRows(larger, lw, lkey, smaller, sw, skey, o)
	}
	if o.Bits == 0 {
		// Degenerate single partition: the B=0 clustering is an
		// identity copy, so one partition pair would be one morsel —
		// fully serial. Skip the copy and probe larger-side chunks
		// concurrently instead (chunks in input order reproduce the
		// serial probe order exactly).
		if err := o.Validate(); err != nil {
			return nil, err
		}
		t, err := e.buildRowsTable(smaller, sw, skey, uint(o.Ignore))
		if err != nil {
			return nil, err
		}
		return e.probeRowsChunked(t, larger, lw, lkey, sw), nil
	}
	cl, err := e.ClusterRows(larger, lw, lkey, o)
	if err != nil {
		return nil, err
	}
	cs, err := e.ClusterRows(smaller, sw, skey, o)
	if err != nil {
		return nil, err
	}
	h := len(cl.Offsets) - 1
	shift := uint(o.Ignore + o.Bits)
	// Partition morsels home on their level-1 radix parent's worker,
	// exactly like the oid-pair join (see PartitionedJoin).
	l1 := level1Shift(o.Bits)
	// Per-partition result buffers are carved from one leased arena at
	// the partition's larger-side offset, capped (three-index) at one
	// match per probe tuple — exact for key-FK joins; expanding joins
	// (duplicate smaller keys) regrow onto a private GC slice.
	rw := lw + sw - 2
	arena := mempool.Slice[int32](e.mem(), (len(larger)/lw)*rw)
	parts := make([][]int32, h)
	var matches atomic.Int64
	e.runAff(h, func(pt int) uint64 { return uint64(pt) >> l1 }, func(_, pt int, _ *Scratch) {
		ll, lh := cl.Offsets[pt]*lw, cl.Offsets[pt+1]*lw
		sl, sh := cs.Offsets[pt]*sw, cs.Offsets[pt+1]*sw
		if ll == lh || sl == sh {
			return
		}
		blo, bhi := cl.Offsets[pt]*rw, cl.Offsets[pt+1]*rw
		buf := arena[blo:blo:bhi]
		var m int
		parts[pt], m = join.ProbeRowsPartition(cs.Rows[sl:sh], sw, skey,
			cl.Rows[ll:lh], lw, lkey, shift, buf)
		matches.Add(int64(m))
	})
	return e.stitchRowParts(parts, rw, int(matches.Load())), nil
}

// HashRowsJoin is the naive pre-projection Hash-Join over wide tuples,
// the parallel equivalent of join.HashRows: the hash table over the
// smaller relation is built with a partitioned per-worker-shard build
// (disjoint bucket ranges — byte-identical to the serial build, so
// chain order still fixes duplicate-match order), then chunks of the
// larger relation probe it concurrently into private buffers stitched
// in chunk order.
func (e *Engine) HashRowsJoin(larger []int32, lw, lkey int, smaller []int32, sw, skey int) (*join.RowsResult, error) {
	if err := checkRowsInput("join", larger, lw, lkey); err != nil {
		return nil, err
	}
	if err := checkRowsInput("join", smaller, sw, skey); err != nil {
		return nil, err
	}
	if e.serial(len(larger)/lw + len(smaller)/sw) {
		return join.HashRows(larger, lw, lkey, smaller, sw, skey)
	}
	t, err := e.buildRowsTable(smaller, sw, skey, 0)
	if err != nil {
		return nil, err
	}
	return e.probeRowsChunked(t, larger, lw, lkey, sw), nil
}

// buildRowsTable builds the wide-tuple hash table on the runtime: the
// formerly serial residue of the naive rows join, sharded per worker
// over disjoint bucket ranges (join.BuildRowsTableParallelBufs). Small
// inputs stay on the serial build.
func (e *Engine) buildRowsTable(rows []int32, width, key int, shift uint) (*join.RowTable, error) {
	if e.serial(len(rows) / width) {
		return join.BuildRowsTable(rows, width, key, shift)
	}
	// The table's linkage arrays are intra-query transients (the probe
	// reads them, the result rows don't): lease the backing, dirty.
	n := len(rows) / width
	ml := e.mem()
	first := mempool.Slice[int32](ml, join.NumBuckets(n))
	next := mempool.Slice[int32](ml, n)
	bucketOf := mempool.Slice[uint32](ml, n)
	return join.BuildRowsTableParallelBufs(rows, width, key, shift, e.workers,
		func(ntasks int, body func(task int)) {
			e.run(ntasks, func(_, t int, _ *Scratch) { body(t) })
		}, first, next, bucketOf)
}

// probeRowsChunked probes larger-side chunks against a prebuilt row
// table concurrently, stitching the per-chunk match buffers in chunk
// (= input) order — the serial probe order.
func (e *Engine) probeRowsChunked(t *join.RowTable, larger []int32, lw, lkey, sw int) *join.RowsResult {
	chunks := e.chunksFor(len(larger) / lw)
	// Per-chunk buffers carve one leased arena at the chunk's offset,
	// capped at one match per probe tuple (see PartitionedRowsJoin).
	rw := lw + sw - 2
	arena := mempool.Slice[int32](e.mem(), (len(larger)/lw)*rw)
	parts := make([][]int32, len(chunks))
	var matches atomic.Int64
	e.run(len(chunks), func(_, c int, _ *Scratch) {
		r := chunks[c]
		buf := arena[r.Lo*rw : r.Lo*rw : r.Hi*rw]
		var m int
		parts[c], m = t.ProbeRows(larger[r.Lo*lw:r.Hi*lw], lw, lkey, buf)
		matches.Add(int64(m))
	})
	return e.stitchRowParts(parts, rw, int(matches.Load()))
}

// stitchRowParts concatenates per-morsel result-row buffers in morsel
// order — a parallel prefix-sum copy into disjoint output ranges. n is
// the morsels' total match count (zero-width rows cannot carry it).
func (e *Engine) stitchRowParts(parts [][]int32, width, n int) *join.RowsResult {
	// offs is transient (leased, dirty — offs[0] set explicitly); out is
	// the pre-projection strategies' result array (mempool.Own).
	offs := mempool.Slice[int](e.mem(), len(parts)+1)
	offs[0] = 0
	for i, part := range parts {
		offs[i+1] = offs[i] + len(part)
	}
	out := e.Own(offs[len(parts)])
	e.run(len(parts), func(_, i int, _ *Scratch) {
		copy(out[offs[i]:offs[i+1]], parts[i])
	})
	return &join.RowsResult{Rows: out, Width: width, N: n}
}

// checkCols validates the attribute offsets an operator reads.
func checkCols(op string, rel *nsm.Relation, cols ...int) error {
	for _, c := range cols {
		if c < 0 || c >= rel.Width {
			return fmt.Errorf("exec: %s: column %d outside width %d", op, c, rel.Width)
		}
	}
	return nil
}

// ScanColumn extracts one attribute of every record — the strided
// key-extraction scan of the NSM post-projection strategies, chunked
// over record ranges.
func (e *Engine) ScanColumn(rel *nsm.Relation, col int) ([]int32, error) {
	if err := checkCols("ScanColumn", rel, col); err != nil {
		return nil, err
	}
	out := mempool.Slice[int32](e.mem(), rel.Len()) // join input: leased
	err := e.ForRanges(rel.Len(), func(r Range) error {
		rel.ScanColumnInto(out, col, r.Lo, r.Hi)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// ScanProject materialises the paper's "NSM projection routine" scan
// as a narrower relation, chunked over record ranges. Its records are a
// join input and leased.
func (e *Engine) ScanProject(rel *nsm.Relation, name string, cols []int) (*nsm.Relation, error) {
	if err := checkCols("ScanProject", rel, cols...); err != nil {
		return nil, err
	}
	out := e.leasedRelation(name, rel.Len(), len(cols))
	err := e.ForRanges(rel.Len(), func(r Range) error {
		rel.ScanProjectInto(out, r.Lo, r.Hi, cols)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// GatherProjectInto fetches the attributes named by cols from the
// records selected by oids into a row-major buffer of dstWidth-wide
// records at field offset dstOff, chunked over oid ranges (disjoint
// destination records).
func (e *Engine) GatherProjectInto(rel *nsm.Relation, dst []int32, dstWidth, dstOff int, oids []OID, cols []int) error {
	if err := checkCols("GatherProjectInto", rel, cols...); err != nil {
		return err
	}
	if dstOff < 0 || dstOff+len(cols) > dstWidth {
		return fmt.Errorf("exec: GatherProjectInto: fields [%d,%d) outside record width %d", dstOff, dstOff+len(cols), dstWidth)
	}
	if len(dst) != len(oids)*dstWidth {
		return fmt.Errorf("exec: GatherProjectInto: dst holds %d records, want %d", len(dst)/dstWidth, len(oids))
	}
	return e.ForRanges(len(oids), func(r Range) error {
		return rel.GatherProjectInto(dst[r.Lo*dstWidth:r.Hi*dstWidth], dstWidth, dstOff, oids[r.Lo:r.Hi], cols)
	})
}

// leasedRelation is nsm.New over leased (dirty) records: for operator
// outputs a later phase of the same pipeline consumes.
func (e *Engine) leasedRelation(name string, n, width int) *nsm.Relation {
	return &nsm.Relation{Name: name, Width: width, Data: mempool.Slice[int32](e.mem(), n*width)}
}

// GatherProject is GatherProjectInto materialising a fresh (leased)
// relation.
func (e *Engine) GatherProject(rel *nsm.Relation, name string, oids []OID, cols []int) (*nsm.Relation, error) {
	out := e.leasedRelation(name, len(oids), len(cols))
	if err := e.GatherProjectInto(rel, out.Data, len(cols), 0, oids, cols); err != nil {
		return nil, err
	}
	return out, nil
}

// StitchRows builds the [key | π] wide tuples of a DSM pre-projection
// scan: the key column streams sequentially while the projection
// columns are gathered through the selection oids, chunked over tuple
// ranges. The tuples are a join input and leased.
func (e *Engine) StitchRows(keys []int32, cols [][]int32, oids []OID) ([]int32, error) {
	n := len(keys)
	if len(oids) != n {
		return nil, fmt.Errorf("exec: StitchRows: %d oids for %d keys", len(oids), n)
	}
	w := 1 + len(cols)
	rows := mempool.Slice[int32](e.mem(), n*w)
	err := e.ForRanges(n, func(r Range) error {
		for i := r.Lo; i < r.Hi; i++ {
			rows[i*w] = keys[i]
		}
		for j, col := range cols {
			for i := r.Lo; i < r.Hi; i++ {
				rows[i*w+1+j] = col[oids[i]]
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// AppendFields glues two equal-cardinality relations side by side,
// chunked over record ranges. The glued records are a result array
// (Engine.Own): the Jive strategy's final assembly. A side that
// projects nothing has zero-width records and so no record count of its
// own (nsm.Relation.Len); the other side's stands.
func (e *Engine) AppendFields(name string, a, b *nsm.Relation) (*nsm.Relation, error) {
	n := a.Len()
	if a.Width == 0 {
		n = b.Len()
	} else if b.Width > 0 && b.Len() != n {
		return nil, fmt.Errorf("nsm: AppendFields: %d vs %d records", n, b.Len())
	}
	w := a.Width + b.Width
	out := &nsm.Relation{Name: name, Width: w, Data: e.Own(n * w)}
	err := e.ForRanges(n, func(r Range) error {
		nsm.AppendFieldsInto(out, a, b, r.Lo, r.Hi)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// DeclusterRowsInto runs the row variant of Radix-Decluster into a
// caller-provided row-major buffer at field offset outOff. Cluster
// groups are morsels; each group's clusters own a disjoint set of
// result records, and the parallel engine divides the insertion
// window between workers exactly as Decluster does.
func (e *Engine) DeclusterRowsInto(out []int32, outWidth, outOff int, values []int32, width int, ids []OID, borders []bat.Border, windowTuples int) error {
	if width <= 0 || len(values)%width != 0 {
		return fmt.Errorf("core: DeclusterRowsInto: %d values not a multiple of width %d", len(values), width)
	}
	n := len(values) / width
	if e.serial(n) {
		return core.DeclusterRowsInto(out, outWidth, outOff, values, width, ids, borders, windowTuples)
	}
	if len(ids) != n {
		return fmt.Errorf("core: DeclusterRowsInto: %d records vs %d ids", n, len(ids))
	}
	if outOff < 0 || outOff+width > outWidth {
		return fmt.Errorf("core: DeclusterRowsInto: fields [%d,%d) outside record width %d", outOff, outOff+width, outWidth)
	}
	if len(out) != n*outWidth {
		return fmt.Errorf("core: DeclusterRowsInto: out holds %d records of width %d, want %d", len(out)/outWidth, outWidth, n)
	}
	if windowTuples < 1 {
		return fmt.Errorf("core: DeclusterRowsInto: window of %d tuples", windowTuples)
	}
	if err := bat.ValidateBorders(borders, n); err != nil {
		return err
	}
	window := perWorkerWindow(windowTuples, e.workers)
	groups := groupBorders(borders, e.workers*morselsPerWorker, n)
	errs := e.errSlots(len(groups))
	e.run(len(groups), func(_, t int, s *Scratch) {
		errs[t] = declusterRowsGroup(out, outWidth, outOff, values, width, ids,
			borders[groups[t].Lo:groups[t].Hi], window, s)
	})
	return firstErr(errs)
}

// declusterRowsGroup is declusterGroup (project.go) for row-major
// records written at a field offset: the Figure-6 windowed
// merge-scatter over one group of clusters, copying whole projected
// records. The control loop is kept specialized rather than shared —
// like internal/core's Decluster/DeclusterRows/DeclusterFunc trio —
// because an emit closure or per-tuple memmove in the scalar variant
// would tax the paper's hottest loop; change both in lockstep (the
// *MatchesSerial tests pin each against the serial algorithm).
func declusterRowsGroup(out []int32, outWidth, outOff int, values []int32, width int, ids []OID, borders []bat.Border, window int, s *Scratch) error {
	n := len(ids)
	cur := s.Ints(2 * len(borders))
	m := 0
	minID := uint64(0)
	for _, b := range borders {
		if b.Size() > 0 {
			if m == 0 || uint64(ids[b.Start]) < minID {
				minID = uint64(ids[b.Start])
			}
			cur[2*m], cur[2*m+1] = b.Start, b.End
			m++
		}
	}
	for windowLimit := (minID/uint64(window))*uint64(window) + uint64(window); m > 0; windowLimit += uint64(window) {
		for i := 0; i < m; i++ {
			start, end := cur[2*i], cur[2*i+1]
			for start < end {
				id := ids[start]
				if uint64(id) >= windowLimit {
					break
				}
				if int(id) >= n {
					return fmt.Errorf("core: DeclusterRowsInto: id %d out of range [0,%d)", id, n)
				}
				copy(out[int(id)*outWidth+outOff:int(id)*outWidth+outOff+width],
					values[start*width:(start+1)*width])
				start++
			}
			cur[2*i] = start
			if start >= end {
				m--
				cur[2*i], cur[2*i+1] = cur[2*m], cur[2*m+1]
				i--
			}
		}
	}
	return nil
}
