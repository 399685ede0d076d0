package exec

// Partition-wise post-projection: the Positional-Join fetches and the
// Radix-Decluster driver. Every cluster confines its random access to
// one cache-sized region of the source column (§3.1), so cluster groups
// are independent morsels. Radix-Decluster itself lives once, in
// internal/core, as one sequential kernel per data shape; this file
// only cuts the borders into cluster groups at run time, like the
// radix kernels' morsels, and runs the kernel once per group. The
// clustered result positions partition the result permutation, so each
// group declusters into a disjoint set of result slots: workers share
// the output array without overlap, and the scatter produces the same
// bytes as one kernel over all the clusters.

import (
	"fmt"

	"radixdecluster/internal/bat"
	"radixdecluster/internal/core"
	"radixdecluster/internal/mempool"
	"radixdecluster/internal/posjoin"
)

// FetchMany runs one Positional-Join per projection column:
// out[c][i] = cols[c][oids[i]], every column over contiguous oid ranges.
// The columns are result arrays (Engine.Own).
func (e *Engine) FetchMany(cols [][]int32, oids []OID) ([][]int32, error) {
	out := make([][]int32, len(cols))
	for c := range cols {
		out[c] = e.Own(len(oids))
	}
	chunks := e.chunksFor(len(oids))
	ntasks := len(cols) * len(chunks)
	errs := e.errSlots(ntasks)
	// Column-major tasks: column c's fetch of chunk k is task
	// c·len(chunks) + k, which homes on chunk k's worker whenever the
	// runtime's worker count divides the chunk count (8 per nominal
	// worker), so that worker holds the chunk's join-index range hot
	// across all π columns.
	e.run(len(oids), ntasks, func(t int, _ *Scratch) {
		c, r := t/len(chunks), chunks[t%len(chunks)]
		if err := posjoin.FetchInto(out[c][r.Lo:r.Hi], cols[c], oids[r.Lo:r.Hi]); err != nil {
			errs[t] = fmt.Errorf("column %d: %w", c, err)
		}
	})
	if err := firstErr(errs); err != nil {
		return nil, err
	}
	return out, nil
}

// Clustered is the clustered Positional-Join over one column: each
// cluster confines its random access to one cache-sized region of the
// source, and cluster groups are the morsels. The fetched column is an
// intermediate — Radix-Decluster reads it once — and is leased.
func (e *Engine) Clustered(col []int32, oids []OID, borders []bat.Border) ([]int32, error) {
	if err := bat.ValidateBorders(borders, len(oids)); err != nil {
		return nil, err
	}
	out := mempool.Slice[int32](e.mem(), len(oids))
	groups := e.clusterGroups(len(oids), len(borders), func(c int) int { return borders[c].End })
	errs := e.errSlots(len(groups))
	e.run(len(oids), len(groups), func(t int, _ *Scratch) {
		for _, b := range borders[groups[t].Lo:groups[t].Hi] {
			if err := posjoin.FetchInto(out[b.Start:b.End], col, oids[b.Start:b.End]); err != nil {
				errs[t] = err
				return
			}
		}
	})
	if err := firstErr(errs); err != nil {
		return nil, err
	}
	return out, nil
}

// Decluster runs Radix-Decluster with the planned window, the engine's
// form of core.Decluster: cluster groups are morsels, each running
// core.DeclusterKernel over its own clusters. The clusters of a group
// own a fixed subset of result positions, so groups scatter into result
// without overlap — and, ids being a permutation, into every slot of
// it: the result array is drawn dirty (mempool.Own) and never cleared.
func (e *Engine) Decluster(values []int32, ids []OID, borders []bat.Border, windowTuples int) ([]int32, error) {
	n := len(values)
	if err := core.CheckDecluster(n, ids, borders, windowTuples); err != nil {
		return nil, err
	}
	result := e.Own(n)
	err := e.declusterPerGroup(n, borders, windowTuples, func(group []bat.Border, window int, cur []int) error {
		return core.DeclusterKernel(result, values, ids, group, window, cur)
	})
	if err != nil {
		return nil, err
	}
	return result, nil
}

// declusterPerGroup runs one Radix-Decluster kernel per cluster group of
// borders (over n tuples) as morsels, handing each its window and
// cursors from its scratch. The planned window is divided between the
// groups that run at once — min(nominal workers, groups): the shared
// cache budget split per core — so the concurrently live window regions
// together still fit the cache; one group, as an inline run is, keeps
// the whole window, the paper's algorithm (core.Decluster). Output
// bytes never depend on the division.
func (e *Engine) declusterPerGroup(n int, borders []bat.Border, windowTuples int,
	kernel func(group []bat.Border, window int, cur []int) error) error {
	groups := e.clusterGroups(n, len(borders), func(c int) int { return borders[c].End })
	window := max(windowTuples/min(max(e.workers, 1), max(len(groups), 1)), 1)
	errs := e.errSlots(len(groups))
	e.run(n, len(groups), func(t int, s *Scratch) {
		group := borders[groups[t].Lo:groups[t].Hi]
		errs[t] = kernel(group, window, s.Ints(2*len(group)))
	})
	return firstErr(errs)
}

// clusterGroups cuts h contiguous clusters over n tuples, cluster c
// ending at position end(c), into groups of roughly n/k tuples each, k
// = morsels(n), so morsels stay balanced even when the clustering is
// skewed; one group holds every cluster when k = 1. The groups are
// leased from the query's arena like chunksFor's and fully written.
func (e *Engine) clusterGroups(n, h int, end func(c int) int) []Range {
	k := e.morsels(n)
	// At most k groups reach the target; trailing empty clusters make
	// one more.
	out := mempool.Slice[Range](e.mem(), max(min(k+1, h), 1))
	if k <= 1 {
		out[0] = Range{Lo: 0, Hi: h}
		return out[:1]
	}
	target := max((n+k-1)/k, 1)
	g, lo, from := 0, 0, 0
	for c := range h {
		if end(c)-from >= target {
			out[g] = Range{Lo: lo, Hi: c + 1}
			g, lo, from = g+1, c+1, end(c)
		}
	}
	if lo < h {
		out[g] = Range{Lo: lo, Hi: h}
		g++
	}
	return out[:g]
}
