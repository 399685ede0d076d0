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
// bytes the serial algorithm would.

import (
	"fmt"

	"radixdecluster/internal/bat"
	"radixdecluster/internal/core"
	"radixdecluster/internal/mempool"
	"radixdecluster/internal/posjoin"
)

// FetchMany runs one Positional-Join per projection column:
// out[c][i] = cols[c][oids[i]]. Parallel runs gather every column over
// contiguous oid ranges. The columns are result arrays (Engine.Own).
func (e *Engine) FetchMany(cols [][]int32, oids []OID) ([][]int32, error) {
	out := make([][]int32, len(cols))
	for c := range cols {
		out[c] = e.Own(len(oids))
	}
	if e.serial(len(oids)) {
		for c := range cols {
			if err := posjoin.FetchInto(out[c], cols[c], oids); err != nil {
				return nil, fmt.Errorf("column %d: %w", c, err)
			}
		}
		return out, nil
	}
	chunks := e.chunksFor(len(oids))
	ntasks := len(cols) * len(chunks)
	errs := e.errSlots(ntasks)
	// The affinity key is the oid-range chunk, not the (column, chunk)
	// task: every column's fetch of the same oid range homes on one
	// worker, which then holds that range of the join-index hot across
	// all π columns.
	e.runAff(ntasks, func(t int) uint64 { return uint64(t % len(chunks)) }, func(_, t int, _ *Scratch) {
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
// source. Parallel runs take cluster groups as morsels. The fetched
// column is an intermediate — Radix-Decluster reads it once — and is
// leased.
func (e *Engine) Clustered(col []int32, oids []OID, borders []bat.Border) ([]int32, error) {
	if err := bat.ValidateBorders(borders, len(oids)); err != nil {
		return nil, err
	}
	out := mempool.Slice[int32](e.mem(), len(oids))
	if e.serial(len(oids)) {
		if err := posjoin.ClusteredInto(out, col, oids, borders); err != nil {
			return nil, err
		}
		return out, nil
	}
	groups := groupBorders(borders, e.workers*morselsPerWorker, len(oids))
	errs := e.errSlots(len(groups))
	e.run(len(groups), func(_, t int, _ *Scratch) {
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

// Decluster runs Radix-Decluster with the planned (serial) window, the
// parallel equivalent of core.Decluster: cluster groups are morsels,
// each running core.DeclusterKernel over its own clusters. The clusters
// of a group own a fixed subset of result positions, so groups scatter
// into result without overlap — and, ids being a permutation, into
// every slot of it: the result array is drawn dirty (mempool.Own) and
// never cleared.
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
// borders (over n tuples) as morsels, handing each the per-worker
// window and cursors from the worker's scratch. The planned window is
// divided between the nominal workers (the shared cache budget split
// per core), so the concurrently live window regions together still
// fit the cache; output bytes never depend on the division. A serial
// run is one kernel over all the borders with the whole window — the
// paper's algorithm, core.Decluster — on leased cursors.
func (e *Engine) declusterPerGroup(n int, borders []bat.Border, windowTuples int,
	kernel func(group []bat.Border, window int, cur []int) error) error {
	if e.serial(n) {
		cur := mempool.Slice[int](e.mem(), 2*len(borders))
		defer Return(e, cur)
		return kernel(borders, windowTuples, cur)
	}
	window := max(windowTuples/e.workers, 1)
	groups := groupBorders(borders, e.workers*morselsPerWorker, n)
	errs := e.errSlots(len(groups))
	e.run(len(groups), func(_, t int, s *Scratch) {
		group := borders[groups[t].Lo:groups[t].Hi]
		errs[t] = kernel(group, window, s.Ints(2*len(group)))
	})
	return firstErr(errs)
}

// groupBorders cuts the cluster list into at most k contiguous groups
// of roughly n/k tuples each, so morsels stay balanced even when the
// clustering is skewed.
func groupBorders(borders []bat.Border, k, n int) []Range {
	if k < 1 {
		k = 1
	}
	target := (n + k - 1) / k
	if target < 1 {
		target = 1
	}
	var out []Range
	lo, acc := 0, 0
	for i, b := range borders {
		acc += b.Size()
		if acc >= target {
			out = append(out, Range{Lo: lo, Hi: i + 1})
			lo, acc = i+1, 0
		}
	}
	if lo < len(borders) {
		out = append(out, Range{Lo: lo, Hi: len(borders)})
	}
	return out
}
