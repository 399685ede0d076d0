package exec

// Parallel operators over row-major (NSM / wide-tuple) data: the
// radix-clustering of whole records, the payload-carrying
// pre-projection joins, the wide-tuple stitch of DSM pre-projection,
// the record scans and gathers of the NSM strategies, and the row
// driver of Radix-Decluster. Morsels are contiguous record ranges
// (scans, stitches, probes), partitions (joins), or cluster groups
// (decluster), each writing a disjoint slice of the output, so every
// operator reproduces its serial counterpart byte for byte. The
// kernels are the serial ones: input checks are join.CheckRows and
// core.CheckDeclusterRows, the naive join's hash table is one
// join.BuildRowsTable, and each decluster morsel is one
// core.DeclusterRowsKernel.

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

// ClusterRows radix-clusters width-wide records on hash(record[keyCol]):
// serially radix.ClusterRowsInto, else the same two-level chunked
// count-then-scatter as ClusterOIDPairs, moving whole records — the
// pre-projection "extra luggage" — and producing the identical
// arrangement and offsets.
func (e *Engine) ClusterRows(rows []int32, width, keyCol int, o radix.Opts) (*radix.RowsResult, error) {
	// The clustered records are a join input, leased like the
	// intermediate a multi-pass fan-out scatters through first, which
	// goes back once the last pass has run. radix.ClusterRowsInto
	// rejects what the parallel body cannot run.
	if join.CheckRows(rows, width, keyCol) != nil || o.Validate() != nil ||
		e.serial(len(rows)/width) || !scatterable(o.Bits) {
		buf := leaseBufs[int32](e, len(rows), o)
		res, err := radix.ClusterRowsInto(buf, rows, width, keyCol, o)
		if err != nil {
			return nil, err
		}
		returnSpare(e, buf, res.Rows)
		return res, nil
	}
	n := len(rows) / width
	out := mempool.Slice[int32](e.mem(), len(rows))
	buf := [2][]int32{out}
	if o.Bits > maxFirstPassBits {
		buf = [2][]int32{mempool.Slice[int32](e.mem(), len(rows)), out}
	}
	count, scatter := radix.RowKernels(rows, width, keyCol, buf)
	offsets := e.scatter2(n, o, count, scatter)
	returnSpare(e, buf, out)
	return &radix.RowsResult{Rows: out, Width: width, Offsets: offsets}, nil
}

// PartitionedRowsJoin is the pre-projection Partitioned Hash-Join over
// wide tuples ("NSM-pre-phash" / "DSM-pre-phash"): both wide-tuple
// inputs are radix-clustered (ClusterRows), and serially
// join.PartitionedRowsInto joins the partition pairs; otherwise they
// are probed as morsels, and the per-partition result rows are stitched
// in partition order — the order the serial loop appends them.
func (e *Engine) PartitionedRowsJoin(larger []int32, lw, lkey int, smaller []int32, sw, skey int, o radix.Opts) (*join.RowsResult, error) {
	if err := join.CheckRows(larger, lw, lkey); err != nil {
		return nil, err
	}
	if err := join.CheckRows(smaller, sw, skey); err != nil {
		return nil, err
	}
	serial := e.serial(len(larger)/lw + len(smaller)/sw)
	if o.Bits == 0 && !serial {
		// Degenerate single partition: the B=0 clustering is an
		// identity copy, so one partition pair would be one morsel —
		// fully serial. Skip the copy and probe larger-side chunks
		// concurrently instead (chunks in input order reproduce the
		// serial probe order exactly).
		if err := o.Validate(); err != nil {
			return nil, err
		}
		return e.hashRows(larger, lw, lkey, smaller, sw, skey, uint(o.Ignore))
	}
	cl, err := e.ClusterRows(larger, lw, lkey, o)
	if err != nil {
		return nil, err
	}
	cs, err := e.ClusterRows(smaller, sw, skey, o)
	if err != nil {
		return nil, err
	}
	defer Return(e, cl.Rows, cs.Rows) // read by the probes only
	shift := uint(o.Ignore + o.Bits)
	rw := lw + sw - 2
	if serial {
		return join.PartitionedRowsInto(e.Own((len(larger) / lw) * rw)[:0], cl, lkey, cs, skey, shift), nil
	}
	h := len(cl.Offsets) - 1
	// Partition morsels home on their level-1 radix parent's worker,
	// exactly like the oid-pair join (see PartitionedJoin).
	l1 := level1Shift(o.Bits)
	// Per-partition result buffers are carved from one leased arena at
	// the partition's larger-side offset, capped (three-index) at one
	// match per probe tuple — exact for key-FK joins; expanding joins
	// (duplicate smaller keys) regrow onto a private GC slice.
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
	res := e.stitchRowParts(parts, rw, int(matches.Load()))
	Return(e, arena)
	return res, nil
}

// HashRowsJoin is the naive pre-projection Hash-Join over wide tuples
// ("NSM-pre-hash" in Figure 10): the projection columns travel as extra
// luggage through an unpartitioned join (see hashRows).
func (e *Engine) HashRowsJoin(larger []int32, lw, lkey int, smaller []int32, sw, skey int) (*join.RowsResult, error) {
	if err := join.CheckRows(larger, lw, lkey); err != nil {
		return nil, err
	}
	if err := join.CheckRows(smaller, sw, skey); err != nil {
		return nil, err
	}
	return e.hashRows(larger, lw, lkey, smaller, sw, skey, 0)
}

// hashRows joins through one hash table over the smaller relation:
// join.BuildRowsTable builds it on the caller's goroutine into leased
// (dirty) bucket-head and chain arrays — intra-query transients the
// probe reads and the result rows don't, handed back after it. A serial
// run probes the whole larger relation into the result array in one
// RowTable.ProbeRows; otherwise chunks of it probe concurrently into
// per-chunk buffers, stitched in chunk (= input) order: the serial
// probe order, with duplicate matches in the table's chain order.
func (e *Engine) hashRows(larger []int32, lw, lkey int, smaller []int32, sw, skey int, shift uint) (*join.RowsResult, error) {
	ml := e.mem()
	ns := len(smaller) / sw
	first, next := mempool.Slice[int32](ml, join.NumBuckets(ns)), mempool.Slice[int32](ml, ns)
	t, err := join.BuildRowsTable(smaller, sw, skey, shift, first, next)
	if err != nil {
		return nil, err
	}
	defer Return(e, first, next)
	nl, rw := len(larger)/lw, lw+sw-2
	if e.serial(nl + ns) {
		rows, m := t.ProbeRows(larger, lw, lkey, e.Own(nl * rw)[:0])
		return &join.RowsResult{Rows: rows, Width: rw, N: m}, nil
	}
	chunks := e.chunksFor(nl)
	// Per-chunk buffers carve one leased arena at the chunk's offset,
	// capped at one match per probe tuple (see PartitionedRowsJoin).
	arena := mempool.Slice[int32](ml, nl*rw)
	parts := make([][]int32, len(chunks))
	var matches atomic.Int64
	e.run(len(chunks), func(_, c int, _ *Scratch) {
		r := chunks[c]
		buf := arena[r.Lo*rw : r.Lo*rw : r.Hi*rw]
		var m int
		parts[c], m = t.ProbeRows(larger[r.Lo*lw:r.Hi*lw], lw, lkey, buf)
		matches.Add(int64(m))
	})
	res := e.stitchRowParts(parts, rw, int(matches.Load()))
	Return(e, arena)
	return res, nil
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
// caller-provided row-major buffer at field offset outOff: tuple with
// result position p lands in out[p*outWidth+outOff :
// p*outWidth+outOff+width]. It is the one row driver: one
// core.DeclusterRowsKernel per cluster group (one group when serial),
// each group's clusters owning a disjoint set of result records, with
// the window divided between workers exactly as Decluster divides it.
func (e *Engine) DeclusterRowsInto(out []int32, outWidth, outOff int, values []int32, width int, ids []OID, borders []bat.Border, windowTuples int) error {
	n := len(ids)
	if err := core.CheckDeclusterRows(out, outWidth, outOff, values, width, ids, borders, windowTuples); err != nil {
		return err
	}
	return e.declusterPerGroup(n, borders, windowTuples, func(group []bat.Border, window int, cur []int) error {
		return core.DeclusterRowsKernel(out, outWidth, outOff, values, width, ids, group, window, cur)
	})
}
