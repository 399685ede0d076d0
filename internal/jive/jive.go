// Package jive implements Jive-Join [LR99] (Li & Ross, "Fast Joins
// Using Join Indices"), the NSM post-projection baseline the paper
// compares Radix-Decluster against (§4.2).
//
// Jive-Join assumes the join-index is available, sorted on the
// RowIds of the left (larger) projection table. It runs in two
// phases:
//
//   - Left Jive-Join merges the sorted join-index with the left table
//     (both sequential) and "directly re-sorts its output on the oids
//     of the other table": every output tuple is appended to one of
//     2^B clusters chosen by the high bits of its right-table oid. It
//     emits two outputs in the same, final result order — the
//     clustered right oids and the left projection columns.
//   - Right Jive-Join processes each cluster: it sorts the cluster's
//     oids for sequential(ish) access to the right table, fetches the
//     right projection columns, and writes them back in the cluster's
//     original order (the result order) — random access confined to
//     the cluster's result range.
//
// The fan-out/cluster-size tension mirrors Radix-Cluster's: too many
// clusters thrash the left phase's insertion cursors, too few make
// the right phase's write-back region exceed the cache (§4.2,
// Figures 9e/9f).
package jive

import (
	"fmt"
	"sort"

	"radixdecluster/internal/bat"
	"radixdecluster/internal/join"
)

// OID mirrors bat.OID.
type OID = bat.OID

// LeftResult is the output of the left phase: the re-clustered right
// oids with their cluster borders, the left projection columns
// already in final result order, and the permutation linking cluster
// slots back to result positions.
type LeftResult struct {
	// RightOIDs holds the right-table oids, clustered by their top
	// `bits` bits. Order within a cluster follows the left-sorted
	// join-index — the final result order restricted to that cluster.
	RightOIDs []OID
	// ResultPos[i] is the final result position of cluster slot i.
	// (With cluster-major result numbering this is the identity; it is
	// materialised because the right phase scatters through it.)
	ResultPos []OID
	// LeftCols are the left projection columns in result order.
	LeftCols [][]int32
	// Borders delimit the clusters in RightOIDs/ResultPos.
	Borders []bat.Border
	// Bits is the cluster fan-out exponent used.
	Bits int
	// shift converts a right oid to its cluster number.
	shift uint
}

// Left runs the left phase. ji must be sorted on ji.Larger (use
// radix.SortOIDPairs); leftCols are the larger table's projection
// columns; rightLen is the right (smaller) table's cardinality, which
// fixes the oid→cluster mapping; bits selects 2^bits clusters.
//
// The result order produced by Jive-Join is cluster-major: all
// matches whose right oid falls in cluster 0 first (ordered by left
// oid), then cluster 1, and so on.
func Left(ji *join.Index, leftCols [][]int32, rightLen, bits int) (*LeftResult, error) {
	n := ji.Len()
	if bits < 0 || bits > 30 {
		return nil, fmt.Errorf("jive: bad cluster bits %d", bits)
	}
	shift := ClusterShift(rightLen, bits)
	h := 1 << bits
	// Histogram pass fixes the cluster extents (the disk version sizes
	// its output files the same way).
	counts := make([]int, h)
	for _, ro := range ji.Smaller {
		c := int(ro >> shift)
		if c >= h {
			return nil, fmt.Errorf("jive: right oid %d outside table of %d tuples", ro, rightLen)
		}
		counts[c]++
	}
	offsets := make([]int, h+1)
	for c := 0; c < h; c++ {
		offsets[c+1] = offsets[c] + counts[c]
	}
	borders := bat.BordersFromOffsets(offsets)

	out := &LeftResult{
		RightOIDs: make([]OID, n),
		ResultPos: make([]OID, n),
		LeftCols:  make([][]int32, len(leftCols)),
		Borders:   borders,
		Bits:      bits,
		shift:     shift,
	}
	for c := range leftCols {
		out.LeftCols[c] = make([]int32, n)
	}
	// Merge pass: sequential over the join-index and (because ji is
	// left-sorted) over each left column; appends to 2^bits cluster
	// cursors — the multi-cursor pattern whose fan-out limit Figure 9e
	// shows.
	cursors := make([]int, h)
	copy(cursors, offsets[:h])
	for i := 0; i < n; i++ {
		lo, ro := ji.Larger[i], ji.Smaller[i]
		c := int(ro >> shift)
		d := cursors[c]
		cursors[c] = d + 1
		out.RightOIDs[d] = ro
		out.ResultPos[d] = OID(d) // cluster-major numbering: identity
		for k, col := range leftCols {
			if int(lo) >= len(col) {
				return nil, fmt.Errorf("jive: left oid %d outside column of %d values", lo, len(col))
			}
			out.LeftCols[k][d] = col[lo]
		}
	}
	return out, nil
}

// Right runs the right phase: per cluster, sort the oids for
// sequential access to the right table, fetch each right projection
// column, and scatter the values back to the cluster's result
// positions. Returns the right projection columns in result order.
func Right(lr *LeftResult, rightCols [][]int32) ([][]int32, error) {
	n := len(lr.RightOIDs)
	out := make([][]int32, len(rightCols))
	for c := range out {
		out[c] = make([]int32, n)
	}
	// perm is scratch reused across clusters.
	perm := make([]int, 0, maxBorder(lr.Borders))
	for _, b := range lr.Borders {
		if b.Size() == 0 {
			continue
		}
		perm = perm[:0]
		for i := b.Start; i < b.End; i++ {
			perm = append(perm, i)
		}
		oids := lr.RightOIDs
		sort.Slice(perm, func(x, y int) bool { return oids[perm[x]] < oids[perm[y]] })
		for k, col := range rightCols {
			o := out[k]
			for _, i := range perm {
				if int(oids[i]) >= len(col) {
					return nil, fmt.Errorf("jive: right oid %d outside column of %d values", oids[i], len(col))
				}
				// Sequential-ish read col[oids[i]] (ascending within the
				// cluster), random write within the cluster's result range.
				o[lr.ResultPos[i]] = col[oids[i]]
			}
		}
	}
	return out, nil
}

// ClusterShift maps right oids of a table with rightLen tuples onto
// 2^bits clusters by their top bits; the parallel executor partitions
// with it exactly like the serial left phase.
func ClusterShift(rightLen, bits int) uint {
	sig := 1
	for 1<<sig < rightLen {
		sig++
	}
	if bits >= sig {
		return 0
	}
	return uint(sig - bits)
}

func maxBorder(borders []bat.Border) int {
	m := 0
	for _, b := range borders {
		if b.Size() > m {
			m = b.Size()
		}
	}
	return m
}
