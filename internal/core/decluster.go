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

// Decluster is the Figure-6 algorithm. values holds the projection
// column in clustered order (CLUST_VALUES), ids the final result
// position of each tuple (CLUST_RESULT), borders the cluster extents
// (CLUST_BORDERS, the clustering's offsets as borders), and
// windowTuples the insertion-window size |W| in tuples (see
// PlanWindow). It returns the column in result order.
//
// ids must be a permutation of [0,len(values)) that is ascending
// within every cluster; Validate* helpers in this package check this
// explicitly, Decluster itself only guards against out-of-range ids.
func Decluster[T any](values []T, ids []OID, borders []bat.Border, windowTuples int) ([]T, error) {
	if err := CheckDecluster(len(values), ids, borders, windowTuples); err != nil {
		return nil, err
	}
	result := make([]T, len(values))
	if err := DeclusterKernel(result, values, ids, borders, windowTuples, make([]int, 2*len(borders))); err != nil {
		return nil, err
	}
	return result, nil
}

// CheckDecluster is the one input check of a Radix-Decluster over n
// values, serial or parallel: one id per value, a window of at least
// one tuple, and borders that tile [0,n).
func CheckDecluster(n int, ids []OID, borders []bat.Border, windowTuples int) error {
	if len(ids) != n {
		return fmt.Errorf("core: Decluster: %d values vs %d ids", n, len(ids))
	}
	if windowTuples < 1 {
		return fmt.Errorf("core: Decluster: window of %d tuples", windowTuples)
	}
	return bat.ValidateBorders(borders, n)
}

// CheckDeclusterRows is CheckDecluster for the row variant of
// Radix-Decluster (DeclusterRowsKernel): whole records of width, one id
// per record, and an out of one outWidth-wide record per id with room
// for width fields at outOff.
func CheckDeclusterRows(out []int32, outWidth, outOff int, values []int32, width int, ids []OID, borders []bat.Border, windowTuples int) error {
	if width <= 0 || len(values)%width != 0 {
		return fmt.Errorf("core: DeclusterRowsInto: %d values not a multiple of width %d", len(values), width)
	}
	n := len(values) / width
	if outOff < 0 || outOff+width > outWidth {
		return fmt.Errorf("core: DeclusterRowsInto: fields [%d,%d) outside record width %d", outOff, outOff+width, outWidth)
	}
	if len(out) != n*outWidth {
		return fmt.Errorf("core: DeclusterRowsInto: out holds %d records of width %d, want %d", len(out)/outWidth, outWidth, n)
	}
	return CheckDecluster(n, ids, borders, windowTuples)
}

// openCursors fills cur with the [start,end) pairs of the non-empty
// clusters among borders (the paper's cluster array, flat) and returns
// their count and the first window limit: the window grid fast-
// forwarded to the smallest result id the clusters hold. A cluster
// group of a parallel run owning high result ids would otherwise sweep
// its cursors through many windows scattering nothing; the limits stay
// on the grid, so write locality per window is unchanged, and output
// bytes never depend on window placement. Over all the clusters of a
// permutation the smallest id is 0.
func openCursors(cur []int, ids []OID, borders []bat.Border, windowTuples int) (int, uint64) {
	m, minID := 0, uint64(0)
	for _, b := range borders {
		if b.Size() > 0 {
			if m == 0 || uint64(ids[b.Start]) < minID {
				minID = uint64(ids[b.Start])
			}
			cur[2*m], cur[2*m+1] = b.Start, b.End
			m++
		}
	}
	w := uint64(windowTuples)
	return m, minID/w*w + w
}

// DeclusterKernel is the Figure-6 insertion-window loop over the
// clusters named by borders: all of them (Decluster), or one cluster
// group of a parallel run, whose clusters own a disjoint set of result
// positions. It writes result[ids[i]] = values[i] for every tuple i of
// those clusters, one window of result positions at a time. cur is the
// caller's cursor array of at least 2*len(borders) ints, dirty or not;
// the kernel allocates nothing. Inputs are CheckDecluster's; ids
// outside [0,len(result)) are still rejected.
func DeclusterKernel[T any](result, values []T, ids []OID, borders []bat.Border, windowTuples int, cur []int) error {
	n := len(result)
	m, windowLimit := openCursors(cur, ids, borders, windowTuples)
	for ; m > 0; windowLimit += uint64(windowTuples) {
		for i := 0; i < m; i++ {
			start, end := cur[2*i], cur[2*i+1]
			for start < end {
				id := ids[start]
				if uint64(id) >= windowLimit {
					break // outside the current insertion window
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

// DeclusterRowsKernel is DeclusterKernel for row-major records (tuple i
// occupies values[i*width:(i+1)*width]): the width fields of clustered
// tuple i land in out's record ids[i] (of outWidth fields) at field
// offset outOff, so the NSM post-projection strategy declusters the
// smaller side's fields straight into the combined result records,
// without an extra copy pass. Inputs are CheckDeclusterRows'. The loop
// is DeclusterKernel's, kept specialised rather than run through
// DeclusterFunc: the per-tuple closure call measured about 1.6× slower.
func DeclusterRowsKernel(out []int32, outWidth, outOff int, values []int32, width int, ids []OID, borders []bat.Border, windowTuples int, cur []int) error {
	n := len(ids)
	m, windowLimit := openCursors(cur, ids, borders, windowTuples)
	for ; m > 0; windowLimit += uint64(windowTuples) {
		for i := 0; i < m; i++ {
			start, end := cur[2*i], cur[2*i+1]
			for start < end {
				id := ids[start]
				if uint64(id) >= windowLimit {
					break
				}
				if int(id) >= n {
					return fmt.Errorf("core: DeclusterRowsInto: id %d out of range [0,%d)", id, n)
				}
				p := int(id)*outWidth + outOff
				copy(out[p:p+width], values[start*width:(start+1)*width])
				start++
			}
			cur[2*i] = start
			if start >= end {
				m--
				cur[2*i], cur[2*i+1] = cur[2*m], cur[2*m+1]
				i--
			}
		}
	}
	return nil
}

// DeclusterFunc runs the Radix-Decluster control loop without moving
// data: for every tuple it calls emit(pos, src), where src indexes the
// clustered order and pos the result order. The Figure-12 variable-
// size path uses this twice — once recording lengths, once copying
// bytes to their computed page offsets.
func DeclusterFunc(ids []OID, borders []bat.Border, windowTuples int, emit func(pos OID, src int)) error {
	n := len(ids)
	if err := CheckDecluster(n, ids, borders, windowTuples); err != nil {
		return err
	}
	cur := make([]int, 2*len(borders))
	m, windowLimit := openCursors(cur, ids, borders, windowTuples)
	for ; m > 0; windowLimit += uint64(windowTuples) {
		for i := 0; i < m; i++ {
			start, end := cur[2*i], cur[2*i+1]
			for start < end {
				id := ids[start]
				if uint64(id) >= windowLimit {
					break
				}
				if int(id) >= n {
					return fmt.Errorf("core: DeclusterFunc: id %d out of range [0,%d)", id, n)
				}
				emit(id, start)
				start++
			}
			cur[2*i] = start
			if start >= end {
				m--
				cur[2*i], cur[2*i+1] = cur[2*m], cur[2*m+1]
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
