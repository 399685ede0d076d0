package exec

// Partition-wise post-projection: the clustered Positional-Join
// fetches and the Radix-Decluster run over groups of radix clusters.
// Every cluster confines its random access to one cache-sized region
// of the source column (§3.1), so cluster groups are independent
// morsels; and because the clustered result positions partition the
// result permutation, each group declusters into a disjoint set of
// result slots — workers share the output array without overlap, and
// the scatter produces the same bytes the serial algorithm would.
//
// Each worker's insertion window is the serial window divided by the
// number of active workers (the shared cache budget split per core),
// so the concurrently live window regions together still fit the
// last-level cache.

import (
	"fmt"

	"radixdecluster/internal/bat"
	"radixdecluster/internal/core"
	"radixdecluster/internal/mempool"
	"radixdecluster/internal/posjoin"
)

// FetchMany runs one Positional-Join per projection column view. Raw
// columns gather by array lookup, compressed columns through the
// worker's block cache; the dispatch is per morsel (fetchColInto).
// Parallel runs gather every column over contiguous oid ranges. The
// columns are result arrays (Engine.Own).
func (e *Engine) FetchMany(cols []Col, oids []OID) ([][]int32, error) {
	for _, c := range cols {
		e.comp.noteInput(c.Enc)
	}
	out := make([][]int32, len(cols))
	for c := range cols {
		out[c] = e.Own(len(oids))
	}
	if e.serial(len(oids)) {
		for c := range cols {
			if err := e.fetchColInto(out[c], cols[c], oids, nil); err != nil {
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
	e.runAff(ntasks, func(t int) uint64 { return uint64(t % len(chunks)) }, func(_, t int, s *Scratch) {
		c, r := t/len(chunks), chunks[t%len(chunks)]
		if err := e.fetchColInto(out[c][r.Lo:r.Hi], cols[c], oids[r.Lo:r.Hi], s); err != nil {
			errs[t] = fmt.Errorf("column %d: %w", c, err)
		}
	})
	if err := firstErr(errs); err != nil {
		return nil, err
	}
	return out, nil
}

// fetchColInto is one morsel of a Positional-Join: dst[i] =
// col[oids[i]]. s is the executing worker's scratch, nil on the serial
// path (which decodes through the engine's own scratch).
func (e *Engine) fetchColInto(dst []int32, col Col, oids []OID, s *Scratch) error {
	if col.Enc == nil {
		return posjoin.FetchInto(dst, col.Raw, oids)
	}
	if s == nil {
		return e.serialDecoder().gather(&e.comp, col.Enc, oids, dst)
	}
	return s.decoder().gather(&e.comp, col.Enc, oids, dst)
}

// Clustered is the clustered Positional-Join over one column view:
// each cluster confines its random access to one cache-sized region of
// the source — for a compressed column, long runs against the same
// decoded blocks. Parallel runs take cluster groups as morsels. The
// fetched column is an intermediate — Radix-Decluster reads it once —
// and is leased.
func (e *Engine) Clustered(col Col, oids []OID, borders []bat.Border) ([]int32, error) {
	e.comp.noteInput(col.Enc)
	if err := bat.ValidateBorders(borders, len(oids)); err != nil {
		return nil, err
	}
	out := mempool.Slice[int32](e.mem(), len(oids))
	if e.serial(len(oids)) {
		for _, b := range borders {
			if err := e.fetchColInto(out[b.Start:b.End], col, oids[b.Start:b.End], nil); err != nil {
				return nil, err
			}
		}
		return out, nil
	}
	groups := groupBorders(borders, e.workers*morselsPerWorker, len(oids))
	errs := e.errSlots(len(groups))
	e.run(len(groups), func(_, t int, s *Scratch) {
		for _, b := range borders[groups[t].Lo:groups[t].Hi] {
			if err := e.fetchColInto(out[b.Start:b.End], col, oids[b.Start:b.End], s); err != nil {
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
// each running the Figure-6 insertion-window loop over its own
// clusters. The planned window is divided between the nominal workers
// (perWorkerWindow), so the concurrently live window regions together
// still fit the cache; output bytes never depend on the division. The
// clusters of a group own a fixed subset of result positions, so
// groups scatter into result without overlap — and, ids being a
// permutation, into every slot of it: the result array is drawn dirty
// (mempool.Own) and never cleared.
func (e *Engine) Decluster(values []int32, ids []OID, borders []bat.Border, windowTuples int) ([]int32, error) {
	n := len(values)
	if e.serial(n) {
		return core.Decluster(values, ids, borders, windowTuples)
	}
	if len(ids) != n {
		return nil, fmt.Errorf("core: Decluster: %d values vs %d ids", n, len(ids))
	}
	if windowTuples < 1 {
		return nil, fmt.Errorf("core: Decluster: window of %d tuples", windowTuples)
	}
	if err := bat.ValidateBorders(borders, n); err != nil {
		return nil, err
	}
	result := e.Own(n)
	window := perWorkerWindow(windowTuples, e.workers)
	groups := groupBorders(borders, e.workers*morselsPerWorker, n)
	errs := e.errSlots(len(groups))
	e.run(len(groups), func(_, t int, s *Scratch) {
		errs[t] = declusterGroup(result, values, ids, borders[groups[t].Lo:groups[t].Hi], window, s)
	})
	if err := firstErr(errs); err != nil {
		return nil, err
	}
	return result, nil
}

// perWorkerWindow splits the planned insertion window across workers
// (each worker's live region gets a 1/workers share of the cache
// budget), clamped to at least one tuple.
func perWorkerWindow(windowTuples, workers int) int {
	w := windowTuples / workers
	if w < 1 {
		w = 1
	}
	return w
}

// declusterGroup runs the windowed merge-scatter of Figure 6 over one
// group of clusters. Cursor state lives in the worker's scratch so
// the loop allocates nothing.
func declusterGroup(result, values []int32, ids []OID, borders []bat.Border, window int, s *Scratch) error {
	n := len(result)
	// cur holds [start,end) cursor pairs of the non-empty clusters.
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
	// Fast-forward the window to the group's first result position:
	// a group owning high result ids would otherwise sweep its
	// cursors through many windows scattering nothing. The window
	// boundaries stay on the same grid, so write locality per window
	// is unchanged (and output bytes never depend on window placement).
	for windowLimit := (minID/uint64(window))*uint64(window) + uint64(window); m > 0; windowLimit += uint64(window) {
		for i := 0; i < m; i++ {
			start, end := cur[2*i], cur[2*i+1]
			for start < end {
				id := ids[start]
				if uint64(id) >= windowLimit {
					break // outside this worker's insertion window
				}
				if int(id) >= n {
					return fmt.Errorf("core: Decluster: id %d out of range [0,%d)", id, n)
				}
				result[id] = values[start]
				start++
			}
			cur[2*i] = start
			if start >= end {
				m--
				cur[2*i], cur[2*i+1] = cur[2*m], cur[2*m+1] // delete empty cluster
				i--                                         // re-examine the swapped-in cluster
			}
		}
	}
	return nil
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
