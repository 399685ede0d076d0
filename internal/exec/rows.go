package exec

// Parallel operators over row-major (NSM / wide-tuple) data: the
// radix-clustering of whole records, the payload-carrying
// pre-projection joins, the record scans and gathers of the NSM
// strategies, and the row variant of Radix-Decluster. Morsels are
// contiguous record ranges (scans, stitches, probes), partitions
// (joins), or cluster groups (gathers, decluster) — each writing a
// disjoint slice of the output, so every operator reproduces its
// serial counterpart byte for byte.

import (
	"fmt"
	"sync/atomic"

	"radixdecluster/internal/bat"
	"radixdecluster/internal/compress"
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

// Rows is a record-array execution view: a row-major NSM relation and,
// optionally, a block-compressed image of its Data. When Enc is
// non-nil it is the execution format — scans and gathers read the
// encoded stream, Rel supplies the shape — and it must decode to
// exactly Rel.Data.
type Rows struct {
	Rel *nsm.Relation
	Enc *compress.Encoded
}

// check validates the view and the attribute offsets an operator reads.
func (v Rows) check(op string, cols ...int) error {
	if v.Enc != nil && v.Enc.Len() != len(v.Rel.Data) {
		return fmt.Errorf("exec: %s: compressed image holds %d values, the relation %d", op, v.Enc.Len(), len(v.Rel.Data))
	}
	for _, c := range cols {
		if c < 0 || c >= v.Rel.Width {
			return fmt.Errorf("exec: %s: column %d outside width %d", op, c, v.Rel.Width)
		}
	}
	return nil
}

// ScanColumn extracts one attribute of every record — the strided
// key-extraction scan of the NSM post-projection strategies, chunked
// over record ranges.
// A compressed view decodes each morsel's records in L1-sized spans
// and strides over the decoded span.
func (e *Engine) ScanColumn(v Rows, col int) ([]int32, error) {
	if err := v.check("ScanColumn", col); err != nil {
		return nil, err
	}
	e.comp.noteInput(v.Enc)
	width := v.Rel.Width
	out := mempool.Slice[int32](e.mem(), v.Rel.Len()) // join input: leased
	err := e.ForRanges(v.Rel.Len(), func(r Range) error {
		if v.Enc == nil {
			v.Rel.ScanColumnInto(out, col, r.Lo, r.Hi)
			return nil
		}
		return e.decodeRecords(v, r, func(buf []int32, lo, hi int) {
			for i, p := lo, col; i < hi; i, p = i+1, p+width {
				out[i] = buf[p]
			}
		})
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// ScanProject materialises the paper's "NSM projection routine" scan
// as a narrower raw relation, chunked over record ranges and shareable
// with every other scan over the same view (see ScanColumn). Its
// records are a join input and leased.
func (e *Engine) ScanProject(v Rows, name string, cols []int) (*nsm.Relation, error) {
	if err := v.check("ScanProject", cols...); err != nil {
		return nil, err
	}
	e.comp.noteInput(v.Enc)
	width, w := v.Rel.Width, len(cols)
	out := e.leasedRelation(name, v.Rel.Len(), w)
	err := e.ForRanges(v.Rel.Len(), func(r Range) error {
		if v.Enc == nil {
			v.Rel.ScanProjectInto(out, r.Lo, r.Hi, cols)
			return nil
		}
		return e.decodeRecords(v, r, func(buf []int32, lo, hi int) {
			for i := lo; i < hi; i++ {
				rec := buf[(i-lo)*width : (i-lo)*width+width]
				dst := out.Data[i*w : i*w+w]
				for k, c := range cols {
					dst[k] = rec[c]
				}
			}
		})
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// GatherProjectInto fetches the attributes named by cols from the
// records selected by oids into a row-major buffer of dstWidth-wide
// records at field offset dstOff, chunked over oid ranges (disjoint
// destination records). A compressed view reads records through the
// region decode / block cache of gatherRecords; partially clustered
// oid orders turn that into long same-block runs.
func (e *Engine) GatherProjectInto(v Rows, dst []int32, dstWidth, dstOff int, oids []OID, cols []int) error {
	if err := v.check("GatherProjectInto", cols...); err != nil {
		return err
	}
	if dstOff < 0 || dstOff+len(cols) > dstWidth {
		return fmt.Errorf("exec: GatherProjectInto: fields [%d,%d) outside record width %d", dstOff, dstOff+len(cols), dstWidth)
	}
	if len(dst) != len(oids)*dstWidth {
		return fmt.Errorf("exec: GatherProjectInto: dst holds %d records, want %d", len(dst)/dstWidth, len(oids))
	}
	e.comp.noteInput(v.Enc)
	return e.ForRanges(len(oids), func(r Range) error {
		if v.Enc == nil {
			return v.Rel.GatherProjectInto(dst[r.Lo*dstWidth:r.Hi*dstWidth], dstWidth, dstOff, oids[r.Lo:r.Hi], cols)
		}
		return e.gatherRecords(v, dst, dstWidth, dstOff, oids, cols, r)
	})
}

// leasedRelation is nsm.New over leased (dirty) records: for operator
// outputs a later phase of the same pipeline consumes.
func (e *Engine) leasedRelation(name string, n, width int) *nsm.Relation {
	return &nsm.Relation{Name: name, Width: width, Data: mempool.Slice[int32](e.mem(), n*width)}
}

// GatherProject is GatherProjectInto materialising a fresh (leased)
// relation.
func (e *Engine) GatherProject(v Rows, name string, oids []OID, cols []int) (*nsm.Relation, error) {
	out := e.leasedRelation(name, len(oids), len(cols))
	if err := e.GatherProjectInto(v, out.Data, len(cols), 0, oids, cols); err != nil {
		return nil, err
	}
	return out, nil
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
