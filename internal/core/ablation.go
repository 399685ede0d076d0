package core

import (
	"container/heap"
	"fmt"

	"radixdecluster/internal/bat"
)

// This file implements the two strawmen that Radix-Decluster
// outperforms (§3.2): a pure scatter with O(N) CPU but unbounded
// random access, and a pure H-way merge with cache-friendly access
// but O(N·log H) CPU. They exist to make the paper's "best of both
// approaches" claim directly measurable (see the ablation benchmarks).

// ScatterDecluster inserts every value at its result position in a
// single pass: result[ids[i]] = values[i]. Equivalent to Decluster
// with an infinite insertion window — the random writes span the
// whole result column, thrashing the cache once it no longer fits.
func ScatterDecluster[T any](values []T, ids []OID) ([]T, error) {
	if len(values) != len(ids) {
		return nil, fmt.Errorf("core: ScatterDecluster: %d values vs %d ids", len(values), len(ids))
	}
	result := make([]T, len(values))
	for i, id := range ids {
		if int(id) >= len(values) {
			return nil, fmt.Errorf("core: ScatterDecluster: id %d out of range [0,%d)", id, len(values))
		}
		result[id] = values[i]
	}
	return result, nil
}

type mergeEntry struct {
	id      OID
	cluster int
}

type mergeHeap []mergeEntry

func (h mergeHeap) Len() int            { return len(h) }
func (h mergeHeap) Less(i, j int) bool  { return h[i].id < h[j].id }
func (h mergeHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *mergeHeap) Push(x interface{}) { *h = append(*h, x.(mergeEntry)) }
func (h *mergeHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// MergeDecluster reorders by merging the H per-cluster sorted id runs
// with a binary heap: sequential output, but O(N·log H) comparisons —
// the CPU cost the paper's windowed algorithm avoids.
func MergeDecluster[T any](values []T, ids []OID, borders []bat.Border) ([]T, error) {
	n := len(values)
	if len(ids) != n {
		return nil, fmt.Errorf("core: MergeDecluster: %d values vs %d ids", n, len(ids))
	}
	if err := bat.ValidateBorders(borders, n); err != nil {
		return nil, err
	}
	// The non-empty clusters, as cursors: Start advances.
	var clusters []bat.Border
	for _, b := range borders {
		if b.Size() > 0 {
			clusters = append(clusters, b)
		}
	}
	result := make([]T, n)
	h := make(mergeHeap, 0, len(clusters))
	for c := range clusters {
		h = append(h, mergeEntry{ids[clusters[c].Start], c})
	}
	heap.Init(&h)
	out := 0
	for h.Len() > 0 {
		e := h[0]
		c := &clusters[e.cluster]
		if int(e.id) >= n {
			return nil, fmt.Errorf("core: MergeDecluster: id %d out of range [0,%d)", e.id, n)
		}
		if OID(out) != e.id {
			return nil, fmt.Errorf("core: MergeDecluster: ids are not a within-cluster-sorted permutation (position %d yields id %d)", out, e.id)
		}
		result[out] = values[c.Start]
		out++
		c.Start++
		if c.Start < c.End {
			h[0] = mergeEntry{ids[c.Start], e.cluster}
			heap.Fix(&h, 0)
		} else {
			heap.Pop(&h)
		}
	}
	if out != n {
		return nil, fmt.Errorf("core: MergeDecluster: emitted %d of %d tuples", out, n)
	}
	return result, nil
}
