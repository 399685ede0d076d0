package jive

import (
	"cmp"
	"fmt"
	"slices"

	"radixdecluster/internal/join"
	"radixdecluster/internal/nsm"
)

// This file holds the NSM variants of the two Jive phases: the
// projection values come out of ω-wide records instead of columns, so
// every lookup drags a whole record's cache lines — the tuple-width
// effect behind Jive-Join's O(C²/T²) scalability bound (§4.2).
//
// Both phases are expressed over chunk-safe kernels (CountRowsChunk,
// ScatterRowsChunk, RightRowsCluster) that the engine (internal/exec,
// Engine.JiveLeft and JiveRight) schedules as morsels: join-index
// chunks and cluster groups, one of each when it runs serially.

// LeftRowsResult mirrors LeftResult with the left projection held as
// row-major records.
type LeftRowsResult struct {
	RightOIDs []OID
	ResultPos []OID
	LeftRows  *nsm.Relation // projected left fields, result order
	Borders   []int         // cluster offsets, len 2^bits+1
	Bits      int
}

// CountRowsChunk histograms the right oids of join-index positions
// [lo,hi) into counts (len 2^bits). Chunks of one histogram pass use
// private counts arrays that the caller prefix-sums into cursors.
func CountRowsChunk(counts []int, smaller []OID, shift uint, rightLen, lo, hi int) error {
	h := len(counts)
	for _, ro := range smaller[lo:hi] {
		c := int(ro >> shift)
		if c >= h {
			return fmt.Errorf("jive: right oid %d outside table of %d tuples", ro, rightLen)
		}
		counts[c]++
	}
	return nil
}

// ScatterRowsChunk runs the left-phase merge over join-index positions
// [lo,hi), appending through the caller's private cursors (one
// insertion point per cluster). Cursors carved from a chunk-ordered
// prefix sum give every chunk disjoint output slots, so concurrent
// chunk scatters reproduce the serial result exactly.
func ScatterRowsChunk(out *LeftRowsResult, ji *join.Index, left *nsm.Relation, leftCols []int, cursors []int, shift uint, lo, hi int) error {
	nLeft := left.Len()
	for i := lo; i < hi; i++ {
		lid, ro := ji.Larger[i], ji.Smaller[i]
		if int(lid) >= nLeft {
			return fmt.Errorf("jive: left oid %d outside relation of %d records", lid, nLeft)
		}
		c := int(ro >> shift)
		d := cursors[c]
		cursors[c] = d + 1
		out.RightOIDs[d] = ro
		out.ResultPos[d] = OID(d)
		left.ProjectRecord(out.LeftRows.Record(d), int(lid), leftCols)
	}
	return nil
}

// NewLeftRowsResult is the left-phase output for n join-index entries
// over the caller's arrays, handed in dirty — the scatter writes every
// slot: rightOIDs and resultPos of at least n entries, leftRows of at
// least n records of len(leftCols) fields. offsets are the cluster
// offsets of the histogram pass.
func NewLeftRowsResult(name string, n int, leftCols []int, offsets []int, bits int, rightOIDs, resultPos []OID, leftRows []int32) *LeftRowsResult {
	return &LeftRowsResult{
		RightOIDs: rightOIDs[:n],
		ResultPos: resultPos[:n],
		LeftRows:  &nsm.Relation{Name: name, Width: len(leftCols), Data: leftRows[:n*len(leftCols)]},
		Borders:   offsets,
		Bits:      bits,
	}
}

// RightRowsCluster runs the right phase over one cluster c: sort the
// cluster's oids for sequential(ish) access to the right relation,
// project the fields, and write them to the cluster's result records.
// ResultPos is the identity within the cluster's [Borders[c],
// Borders[c+1]) range, so concurrent clusters write disjoint records
// of out. perm is sort scratch, returned (possibly regrown) for reuse.
func RightRowsCluster(out *nsm.Relation, lr *LeftRowsResult, right *nsm.Relation, rightCols []int, c int, perm []int) ([]int, error) {
	lo, hi := lr.Borders[c], lr.Borders[c+1]
	perm = perm[:0]
	for i := lo; i < hi; i++ {
		perm = append(perm, i)
	}
	oids := lr.RightOIDs
	slices.SortFunc(perm, func(x, y int) int { return cmp.Compare(oids[x], oids[y]) })
	nRight := right.Len()
	for _, i := range perm {
		if int(oids[i]) >= nRight {
			return perm, fmt.Errorf("jive: right oid %d outside relation of %d records", oids[i], nRight)
		}
		right.ProjectRecord(out.Record(int(lr.ResultPos[i])), int(oids[i]), rightCols)
	}
	return perm, nil
}
