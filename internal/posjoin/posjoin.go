// Package posjoin implements Positional-Joins: projections through a
// join-index by array lookup (§3).
//
// In MonetDB columns are [void,value] arrays, so fetching the
// projection value for an oid is out[i] = col[oids[i]] with
// negligible CPU cost — the entire performance story is the *memory
// access pattern* of the oids:
//
//   - Unsorted: oids in arbitrary (join output) order → random access
//     over the whole source column; cacheable only if the column fits.
//   - Sorted: oids ascending (after Radix-Sort) → sequential access,
//     the pattern modern prefetchers love.
//   - Clustered: oids partially clustered (partial Radix-Cluster,
//     §3.1) → each cluster touches one cache-sized region of the
//     source column; the cheap middle ground.
//   - Sparse: the source column belongs to a base table of which the
//     join relation is a selection, so even sorted/clustered oids
//     skip over most of the column, wasting cache-line words (§4.2,
//     Figure 11).
//
// All variants compute the same result, out[i] = col[oids[i]]: the
// caller names the pattern by the oids it hands in (FetchInto for u
// and s, ClusteredInto for c), and the experiments and cost model by
// the pattern they exercise.
package posjoin

import (
	"fmt"

	"radixdecluster/internal/bat"
)

// OID mirrors bat.OID.
type OID = bat.OID

// FetchInto is the Positional-Join kernel, out[i] = col[oids[i]], into
// a caller-provided result column of len(oids) values.
func FetchInto(out, col []int32, oids []OID) error { return FetchWindowInto(out, col, 0, oids) }

// FetchWindowInto is FetchInto over a window of a column: window holds
// col[base : base+len(window)] and every oid must fall inside it —
// out[i] = col[oids[i]] read from the window (FetchInto is base 0, the
// whole column). The fetch over a join image reads one partition's range
// this way, raw or decoded into scratch.
func FetchWindowInto(out, window []int32, base OID, oids []OID) error {
	if len(out) != len(oids) {
		return fmt.Errorf("posjoin: out has %d slots for %d oids", len(out), len(oids))
	}
	n := uint32(len(window))
	for i, o := range oids {
		if o-base >= n { // an oid below base wraps past n
			return fmt.Errorf("posjoin: oid %d out of range [%d,%d)", o, base, base+n)
		}
		out[i] = window[o-base]
	}
	return nil
}

// FetchWindowPairInto is FetchWindowInto over two windows of one range,
// in one pass over oids: out0[i] = w0[oids[i]-base] and out1[i] =
// w1[oids[i]-base], each oid range-checked once, as FetchWindowInto
// checks it. The fetch over a join image gathers two columns of a
// partition this way, reading each position once.
func FetchWindowPairInto(out0, out1, w0, w1 []int32, base OID, oids []OID) error {
	if len(out0) != len(oids) || len(out1) != len(oids) {
		return fmt.Errorf("posjoin: out has %d and %d slots for %d oids", len(out0), len(out1), len(oids))
	}
	if len(w0) != len(w1) {
		return fmt.Errorf("posjoin: windows of %d and %d values", len(w0), len(w1))
	}
	out0, out1, w1 = out0[:len(oids)], out1[:len(oids)], w1[:len(w0)]
	for i, o := range oids {
		j := uint(o - base)
		if j >= uint(len(w0)) { // an oid below base wraps past the window
			return fmt.Errorf("posjoin: oid %d out of range [%d,%d)", o, base, base+OID(len(w0)))
		}
		out0[i], out1[i] = w0[j], w1[j]
	}
	return nil
}

// ClusteredInto processes a partially radix-clustered oid column
// cluster by cluster (code "c"), restricting each inner loop to one
// cache-sized region of col: it gathers every cluster of borders, which
// must tile the oid column, into the matching [Start,End) range of out
// (len(oids) values).
func ClusteredInto(out, col []int32, oids []OID, borders []bat.Border) error {
	if len(out) != len(oids) {
		return fmt.Errorf("posjoin: out has %d slots for %d oids", len(out), len(oids))
	}
	if err := bat.ValidateBorders(borders, len(oids)); err != nil {
		return err
	}
	for _, b := range borders {
		if err := FetchInto(out[b.Start:b.End], col, oids[b.Start:b.End]); err != nil {
			return err
		}
	}
	return nil
}
