// Package core implements Radix-Decluster, the central contribution
// of the paper (§3.2, Figures 4–6).
//
// Setting: the join result order was fixed by partially radix-
// clustering the join-index on the *larger* relation's oids. The
// projections from the *smaller* relation are then fetched by first
// re-clustering the [result-position, smaller-oid] pairs on the
// smaller oid (so the Positional-Joins touch cache-sized regions of
// the smaller columns), which produces projection columns
// (CLUST_VALUES) in *clustered* order rather than result order.
// Radix-Decluster puts them back.
//
// It exploits two properties of CLUST_RESULT — the result-position
// column that travelled through the re-clustering: (1) it is a
// permutation of 0..N-1 (Radix-Cluster neither adds nor deletes
// values), and (2) it is ascending within each cluster (Radix-Cluster
// appends sequentially, locally respecting input order). A pure merge
// of the H sorted clusters would cost O(N·log H) CPU; a pure scatter
// (result[IDs[i]] = values[i]) costs O(N) CPU but random access over
// the whole result. Radix-Decluster gets the best of both by
// restricting the scatter to an insertion window W: each round
// advances a cursor in every cluster while the positions still fall
// inside the window, then slides the window. Property (1) guarantees
// each round fills the window densely; property (2) guarantees a
// single forward cursor per cluster suffices. Reads of CLUST_VALUES /
// CLUST_RESULT are sequential per cluster; writes are random only
// within the cacheable window.
package core

import (
	"fmt"

	"radixdecluster/internal/bat"
	"radixdecluster/internal/mem"
	"radixdecluster/internal/radix"
)

// OID mirrors bat.OID.
type OID = bat.OID

// cursor is the paper's `struct { int start, end }` cluster entry.
type cursor struct {
	start, end int
}

func activeCursors(borders []bat.Border, n int) ([]cursor, error) {
	if err := bat.ValidateBorders(borders, n); err != nil {
		return nil, err
	}
	cl := make([]cursor, 0, len(borders))
	for _, b := range borders {
		if b.Size() > 0 {
			cl = append(cl, cursor{b.Start, b.End})
		}
	}
	return cl, nil
}

// Decluster is the Figure-6 algorithm. values holds the projection
// column in clustered order (CLUST_VALUES), ids the final result
// position of each tuple (CLUST_RESULT), borders the cluster extents
// (CLUST_BORDERS, from radix.Count or the clustering itself), and
// windowTuples the insertion-window size |W| in tuples (see
// PlanWindow). It returns the column in result order.
//
// ids must be a permutation of [0,len(values)) that is ascending
// within every cluster; Validate* helpers in this package check this
// explicitly, Decluster itself only guards against out-of-range ids.
func Decluster[T any](values []T, ids []OID, borders []bat.Border, windowTuples int) ([]T, error) {
	n := len(values)
	if len(ids) != n {
		return nil, fmt.Errorf("core: Decluster: %d values vs %d ids", n, len(ids))
	}
	if windowTuples < 1 {
		return nil, fmt.Errorf("core: Decluster: window of %d tuples", windowTuples)
	}
	clusters, err := activeCursors(borders, n)
	if err != nil {
		return nil, err
	}
	result := make([]T, n)
	nclusters := len(clusters)
	for windowLimit := uint64(windowTuples); nclusters > 0; windowLimit += uint64(windowTuples) {
		for i := 0; i < nclusters; i++ {
			for clusters[i].start < clusters[i].end {
				id := ids[clusters[i].start]
				if uint64(id) >= windowLimit {
					break // outside the current insertion window
				}
				if int(id) >= n {
					return nil, fmt.Errorf("core: Decluster: id %d out of range [0,%d)", id, n)
				}
				result[id] = values[clusters[i].start]
				clusters[i].start++
			}
			if clusters[i].start >= clusters[i].end {
				nclusters--
				clusters[i] = clusters[nclusters] // delete empty cluster
				i--                               // re-examine the swapped-in cluster
			}
		}
	}
	return result, nil
}

// DeclusterRows is Decluster for row-major NSM records of the given
// width: tuple i occupies values[i*width:(i+1)*width]. Used by the
// NSM post-projection strategy, where whole projected records move.
func DeclusterRows(values []int32, width int, ids []OID, borders []bat.Border, windowTuples int) ([]int32, error) {
	if width <= 0 || len(values)%width != 0 {
		return nil, fmt.Errorf("core: DeclusterRows: %d values not a multiple of width %d", len(values), width)
	}
	n := len(values) / width
	if len(ids) != n {
		return nil, fmt.Errorf("core: DeclusterRows: %d records vs %d ids", n, len(ids))
	}
	if windowTuples < 1 {
		return nil, fmt.Errorf("core: DeclusterRows: window of %d tuples", windowTuples)
	}
	clusters, err := activeCursors(borders, n)
	if err != nil {
		return nil, err
	}
	result := make([]int32, len(values))
	nclusters := len(clusters)
	for windowLimit := uint64(windowTuples); nclusters > 0; windowLimit += uint64(windowTuples) {
		for i := 0; i < nclusters; i++ {
			for clusters[i].start < clusters[i].end {
				id := ids[clusters[i].start]
				if uint64(id) >= windowLimit {
					break
				}
				if int(id) >= n {
					return nil, fmt.Errorf("core: DeclusterRows: id %d out of range [0,%d)", id, n)
				}
				copy(result[int(id)*width:(int(id)+1)*width],
					values[clusters[i].start*width:(clusters[i].start+1)*width])
				clusters[i].start++
			}
			if clusters[i].start >= clusters[i].end {
				nclusters--
				clusters[i] = clusters[nclusters]
				i--
			}
		}
	}
	return result, nil
}

// DeclusterRowsInto is DeclusterRows writing into a caller-provided
// row-major buffer of outWidth-wide records at field offset outOff:
// tuple with result position p lands in out[p*outWidth+outOff :
// p*outWidth+outOff+width]. This lets the NSM post-projection
// strategy decluster the smaller side's fields straight into the
// combined result records, without an extra copy pass.
func DeclusterRowsInto(out []int32, outWidth, outOff int, values []int32, width int, ids []OID, borders []bat.Border, windowTuples int) error {
	if width <= 0 || len(values)%width != 0 {
		return fmt.Errorf("core: DeclusterRowsInto: %d values not a multiple of width %d", len(values), width)
	}
	n := len(values) / width
	if len(ids) != n {
		return fmt.Errorf("core: DeclusterRowsInto: %d records vs %d ids", n, len(ids))
	}
	if outOff < 0 || outOff+width > outWidth {
		return fmt.Errorf("core: DeclusterRowsInto: fields [%d,%d) outside record width %d", outOff, outOff+width, outWidth)
	}
	if len(out) != n*outWidth {
		return fmt.Errorf("core: DeclusterRowsInto: out holds %d records of width %d, want %d", len(out)/outWidth, outWidth, n)
	}
	return DeclusterFunc(ids, borders, windowTuples, func(pos OID, src int) {
		copy(out[int(pos)*outWidth+outOff:int(pos)*outWidth+outOff+width],
			values[src*width:(src+1)*width])
	})
}

// DeclusterFunc runs the Radix-Decluster control loop without moving
// data: for every tuple it calls emit(pos, src), where src indexes the
// clustered order and pos the result order. The Figure-12 variable-
// size path uses this twice — once recording lengths, once copying
// bytes to their computed page offsets.
func DeclusterFunc(ids []OID, borders []bat.Border, windowTuples int, emit func(pos OID, src int)) error {
	n := len(ids)
	if windowTuples < 1 {
		return fmt.Errorf("core: DeclusterFunc: window of %d tuples", windowTuples)
	}
	clusters, err := activeCursors(borders, n)
	if err != nil {
		return err
	}
	nclusters := len(clusters)
	for windowLimit := uint64(windowTuples); nclusters > 0; windowLimit += uint64(windowTuples) {
		for i := 0; i < nclusters; i++ {
			for clusters[i].start < clusters[i].end {
				id := ids[clusters[i].start]
				if uint64(id) >= windowLimit {
					break
				}
				if int(id) >= n {
					return fmt.Errorf("core: DeclusterFunc: id %d out of range [0,%d)", id, n)
				}
				emit(id, clusters[i].start)
				clusters[i].start++
			}
			if clusters[i].start >= clusters[i].end {
				nclusters--
				clusters[i] = clusters[nclusters]
				i--
			}
		}
	}
	return nil
}

// PlanWindow returns the insertion-window size in tuples for elements
// of elemBytes, following Figure 6: windowSize = CACHESIZE / (2 *
// sizeof(Type)) — the window is filled in random order, so it must
// stay well inside the last-level cache C (§3.2: performance drops
// sharply once ‖W‖ exceeds C).
func PlanWindow(h mem.Hierarchy, elemBytes int) int {
	if elemBytes <= 0 {
		elemBytes = 4
	}
	w := h.LLC().Size / (2 * elemBytes)
	if w < 1 {
		w = 1
	}
	return w
}

// MinTuplesPerClusterWindow is the paper's w: the average number of
// tuples each cluster contributes per insertion window. §4.1 finds
// w = 32 "sufficient to achieve good memory bandwidth usage".
const MinTuplesPerClusterWindow = 32

// MaxBitsForWindow bounds B so that an insertion window of
// windowTuples still draws at least MinTuplesPerClusterWindow tuples
// from each of the 2^B clusters.
func MaxBitsForWindow(windowTuples int) int {
	return mem.Log2Floor(windowTuples / MinTuplesPerClusterWindow)
}

// ScalabilityLimit is the paper's conclusion-section bound: with the
// two constraints w ≥ 32 and ‖W‖ ≤ C, Radix-Decluster handles
// relations of up to |R| = C² / (32 · width²) tuples efficiently
// (half a billion 4-byte values for a 512KB cache; quadratically more
// with bigger caches, quadratically fewer with wider NSM tuples).
func ScalabilityLimit(h mem.Hierarchy, widthBytes int) int {
	c := h.LLC().Size
	return c / (32 * widthBytes) * (c / widthBytes)
}

// Clustered bundles everything Radix-Decluster needs about the
// smaller relation's side of the join-index (Figure 4): the oids to
// fetch with (CLUST_SMALLER), where each fetched tuple belongs in the
// result (CLUST_RESULT), and the cluster extents (CLUST_BORDERS).
type Clustered struct {
	SmallerOIDs []OID // CLUST_SMALLER: clustered oids into the smaller relation
	ResultPos   []OID // CLUST_RESULT: final result position per tuple
	Borders     []bat.Border
	Bits        int
	Ignore      int
}

// ClusterForDecluster performs the re-clustering step of Figure 4: it
// radix-clusters the [result-position, smaller-oid] view JOIN_SMALLER
// on the smaller oid with the given options and returns the two mark()
// views plus borders. smallerOIDs is the smaller half of the
// join-index in result order; the result positions are its (virtual)
// dense head.
func ClusterForDecluster(smallerOIDs []OID, o radix.Opts) (*Clustered, error) {
	return ClusterForDeclusterWith(smallerOIDs, o, radix.ClusterOIDPairs)
}

// ClusterForDeclusterWith is ClusterForDecluster with a caller-chosen
// clustering engine: the parallel executor passes its
// Pool.ClusterOIDPairs so the re-clustering runs on the worker pool
// while the CLUST_* view bookkeeping stays in one place.
func ClusterForDeclusterWith(smallerOIDs []OID, o radix.Opts,
	cluster func(key, other []OID, o radix.Opts) (*radix.OIDPairsResult, error)) (*Clustered, error) {
	// The result positions are JOIN_SMALLER's void head: the clustering
	// only reads them, so the shared dense slab serves.
	res, err := cluster(smallerOIDs, bat.Dense(len(smallerOIDs)), o)
	if err != nil {
		return nil, err
	}
	return &Clustered{
		SmallerOIDs: res.Key,
		ResultPos:   res.Other,
		Borders:     res.Borders(),
		Bits:        o.Bits,
		Ignore:      o.Ignore,
	}, nil
}

// Validate checks the two §3.2 properties that Decluster relies on.
// It is O(N) and intended for tests and debugging, not hot paths.
func (c *Clustered) Validate() error {
	if len(c.SmallerOIDs) != len(c.ResultPos) {
		return fmt.Errorf("core: clustered views differ in length: %d vs %d", len(c.SmallerOIDs), len(c.ResultPos))
	}
	if err := bat.ValidateBorders(c.Borders, len(c.ResultPos)); err != nil {
		return err
	}
	if !bat.IsPermutation(c.ResultPos) {
		return fmt.Errorf("core: CLUST_RESULT is not a permutation of [0,%d)", len(c.ResultPos))
	}
	if !bat.SortedWithin(c.ResultPos, c.Borders) {
		return fmt.Errorf("core: CLUST_RESULT not ascending within clusters")
	}
	return nil
}
