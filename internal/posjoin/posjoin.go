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
// All variants compute the same result; the named entry points keep
// the experiment code and the cost model honest about which pattern
// they exercise.
package posjoin

import (
	"fmt"

	"radixdecluster/internal/bat"
)

// OID mirrors bat.OID.
type OID = bat.OID

// Fetch is the Positional-Join kernel: out[i] = col[oids[i]].
// It allocates the result column.
func Fetch(col []int32, oids []OID) ([]int32, error) {
	out := make([]int32, len(oids))
	if err := FetchInto(out, col, oids); err != nil {
		return nil, err
	}
	return out, nil
}

// FetchInto gathers into a caller-provided result column.
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

// Unsorted is Fetch under its strategy name (code "u" in §4.1): one
// Positional-Join straight from the join-index, random access on col.
func Unsorted(col []int32, oids []OID) ([]int32, error) { return Fetch(col, oids) }

// Sorted is Fetch after the join-index has been fully Radix-Sorted
// (code "s"): oids ascend, access is sequential. The caller is
// responsible for the oids actually being sorted; CheckSorted
// verifies it in tests.
func Sorted(col []int32, oids []OID) ([]int32, error) { return Fetch(col, oids) }

// Clustered processes a partially radix-clustered oid column cluster
// by cluster (code "c"), restricting each inner loop to one
// cache-sized region of col. borders must tile the oid column.
func Clustered(col []int32, oids []OID, borders []bat.Border) ([]int32, error) {
	if err := bat.ValidateBorders(borders, len(oids)); err != nil {
		return nil, err
	}
	out := make([]int32, len(oids))
	if err := ClusteredInto(out, col, oids, borders); err != nil {
		return nil, err
	}
	return out, nil
}

// ClusteredInto is the chunk-safe kernel behind Clustered: it gathers
// the clusters listed in borders into the matching [Start,End) ranges
// of out. The parallel executor hands disjoint border groups of one
// clustering to different workers; each call writes only the ranges
// its borders name, so concurrent calls over a partition of the
// borders never overlap.
func ClusteredInto(out, col []int32, oids []OID, borders []bat.Border) error {
	for _, b := range borders {
		if err := FetchInto(out[b.Start:b.End], col, oids[b.Start:b.End]); err != nil {
			return err
		}
	}
	return nil
}

// FetchMany runs one Positional-Join per projection column — the
// column-at-a-time execution of DSM post-projection, where each
// operator is a hard-coded tight loop over one array.
func FetchMany(cols [][]int32, oids []OID) ([][]int32, error) {
	out := make([][]int32, len(cols))
	for c, col := range cols {
		var err error
		out[c], err = Fetch(col, oids)
		if err != nil {
			return nil, fmt.Errorf("column %d: %w", c, err)
		}
	}
	return out, nil
}

// CheckSorted reports whether oids ascend — the precondition of the
// Sorted pattern.
func CheckSorted(oids []OID) bool {
	for i := 1; i < len(oids); i++ {
		if oids[i] < oids[i-1] {
			return false
		}
	}
	return true
}
