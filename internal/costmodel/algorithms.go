package costmodel

import (
	"math"

	"radixdecluster/internal/mem"
	"radixdecluster/internal/radix"
)

// This file composes the basic patterns into the per-algorithm cost
// formulas of Appendix A. CPU terms use small per-tuple constants —
// the paper's models are pure memory models, but MonetDB's measured
// curves include the (column-at-a-time, very low) interpretation
// overhead, so a few ns/tuple keeps the low-B ends of the curves
// realistic.

// Per-tuple CPU costs in nanoseconds. These are deliberately coarse:
// they set the floor of each curve, while the memory terms produce
// its shape.
const (
	cpuCluster   = 1.5 // histogram + scatter per tuple per pass
	cpuHashBuild = 4.0 // hash + insert
	cpuHashProbe = 5.0 // hash + chain walk
	cpuPosJoin   = 1.0 // array lookup + store
	cpuDecluster = 2.0 // cursor advance + bounds check + store
	cpuJiveSort  = 4.0 // per comparison in the right-phase sort
)

const pairBytes = 8 // [oid,value] and [oid,oid] tuples

// RadixCluster models radix_cluster(B,P) over n tuples of tupleBytes:
// per pass, a sequential read of the input concurrent with a
// multi-cursor append into 2^Bp clusters (Appendix A: s_trav ⊙ nest).
// The input stream and the output cursors share the cache.
func RadixCluster(m Model, n, tupleBytes int, passes []int) Cost {
	r := Region{N: n, Width: tupleBytes}
	shared := Model{H: m.H, Share: 0.5 * m.share()}
	total := Cost{}
	for _, bp := range passes {
		total = total.Add(shared.STrav(r))
		total = total.Add(shared.Nest(r, 1<<bp))
		total = total.Add(Cost{CPU: cpuCluster * float64(n)})
	}
	return total
}

// PartitionedHashJoin models part_hash_join over 2^B partition pairs:
// per partition, build = s_trav(inner) ⊙ r_trav(hash table), probe =
// s_trav(outer) ⊙ r_acc(|outer_p|, inner values + table) ⊙
// s_trav(out). B = 0 is the naive hash join.
func PartitionedHashJoin(m Model, nOuter, nInner, tupleBytes, bits, nOut int) Cost {
	h := 1 << bits
	const tableOverhead = 12 // bucket head + chain entry
	innerP := Region{N: ceilDiv(nInner, h), Width: tupleBytes}
	tableP := Region{N: ceilDiv(nInner, h), Width: tableOverhead}
	probeTargetP := Region{N: ceilDiv(nInner, h), Width: tupleBytes + tableOverhead}
	outerP := Region{N: ceilDiv(nOuter, h), Width: tupleBytes}
	outP := Region{N: ceilDiv(nOut, h), Width: pairBytes}

	shared := Model{H: m.H, Share: 0.5 * m.share()}
	build := shared.STrav(innerP).
		Add(shared.RTrav(tableP)).
		Add(Cost{CPU: cpuHashBuild * float64(innerP.N)})
	probe := shared.STrav(outerP).
		Add(shared.RAcc(outerP.N, probeTargetP)).
		Add(shared.STrav(outP)).
		Add(Cost{CPU: cpuHashProbe * float64(outerP.N)})
	return build.Add(probe).Scale(float64(h))
}

// ClustPosJoin models clust_pos_join: the join-index is read
// sequentially; each of the 2^B clusters makes its random accesses
// inside one (1/2^B)-th slice of the source column; the output is
// written sequentially. B = 0 is the unsorted Positional-Join
// (r_acc over the whole column), the degenerate case of Figure 9c's
// "0 = unclustered".
func ClustPosJoin(m Model, nJI, colN, width, bits int) Cost {
	h := 1 << bits
	jiP := Region{N: ceilDiv(nJI, h), Width: 4}
	colP := Region{N: ceilDiv(colN, h), Width: width}
	outP := Region{N: ceilDiv(nJI, h), Width: width}
	shared := Model{H: m.H, Share: 0.5 * m.share()}
	per := shared.STrav(jiP).
		Add(shared.RAcc(jiP.N, colP)).
		Add(shared.STrav(outP)).
		Add(Cost{CPU: cpuPosJoin * float64(jiP.N)})
	return per.Scale(float64(h))
}

// Decluster models radix_decluster (Appendix A): per insertion window
// k, sequential reads of (1/#w)-th of each of the 2^B clusters of
// CLUST_VALUES and CLUST_RESULT, a repetitive random traversal of the
// window X'_k, and a repeated sequential scan over CLUST_BORDERS.
func Decluster(m Model, n, width, bits, windowTuples int) Cost {
	if windowTuples < 1 {
		windowTuples = 1
	}
	nw := ceilDiv(n, windowTuples) // #w: number of insertion windows
	h := 1 << bits
	shared := Model{H: m.H, Share: 0.5 * m.share()}

	// Sequential reads of values and ids — every tuple once overall.
	reads := shared.STrav(Region{N: n, Width: width}).
		Add(shared.STrav(Region{N: n, Width: 4}))
	// Short per-cluster read bursts cost extra TLB/cache transitions:
	// each window visits each cluster once (2 streams), so 2·#w·2^B
	// random touches land on the cluster fronts. With w tuples per
	// cluster per window this "diminishes quickly with increasing
	// window size" (§4.1).
	fronts := shared.RAcc(2*nw*h, Region{N: n, Width: width})
	// Cap the front cost at one access per tuple read burst.
	for i := range fronts.Levels {
		fronts.Levels[i].Rand = math.Min(fronts.Levels[i].Rand, float64(2*nw*h))
	}
	// The window is filled in random order: rr_trav(2^B, X'_k) per
	// window = a random traversal of each window region, n tuples in
	// total across windows.
	window := shared.RRTrav(h, Region{N: windowTuples, Width: width}).Scale(float64(nw))
	// Repeated sequential scan of the cluster borders array.
	borders := shared.RSTrav(nw, Region{N: h, Width: 16})

	return reads.Add(fronts).Add(window).Add(borders).
		Add(Cost{CPU: cpuDecluster*float64(n) + float64(nw*h)})
}

// LeftJive models the first Jive-Join phase: sequential merge of the
// (sorted) join-index with the left table, fanning out into 2^B
// clusters on two outputs at once (Appendix A: two nest patterns
// concurrent with two sequential reads).
func LeftJive(m Model, nJI, leftN, width, bits int) Cost {
	shared := Model{H: m.H, Share: 0.25 * m.share()}
	out := Region{N: nJI, Width: 4}
	outVals := Region{N: nJI, Width: width}
	return shared.STrav(Region{N: nJI, Width: pairBytes}).
		Add(shared.STrav(Region{N: leftN, Width: width})).
		Add(shared.Nest(out, 1<<bits)).
		Add(shared.Nest(outVals, 1<<bits)).
		Add(Cost{CPU: (cpuPosJoin + cpuCluster) * float64(nJI)})
}

// RightJive models the second phase: per cluster, sort the oids
// (CPU), fetch from the right table's cluster-wide slice
// sequentially, and write back into the cluster's result range in
// random order (Appendix A: s_trav(X_p) ⊙ s_trav(Y_p) ⊙ r_trav(Z_p)).
// Few clusters ⇒ the write-back region exceeds the cache, the inverse
// failure mode of the left phase (Figures 9e/9f).
func RightJive(m Model, nJI, rightN, width, bits int) Cost {
	h := 1 << bits
	k := ceilDiv(nJI, h) // tuples per cluster
	shared := Model{H: m.H, Share: m.share() / 3}
	per := shared.STrav(Region{N: k, Width: 4}).
		Add(shared.STrav(Region{N: ceilDiv(rightN, h), Width: width})).
		Add(shared.RTrav(Region{N: k, Width: width})).
		Add(Cost{CPU: cpuJiveSort * float64(k) * math.Log2(math.Max(2, float64(k)))})
	return per.Scale(float64(h))
}

// DSMPostDecluster composes the full Figure-7b strategy cost for π
// projection columns per side: partial cluster of the join-index, π
// clustered Positional-Joins on the larger side, re-cluster, and π
// clustered fetch + decluster rounds on the smaller side.
func DSMPostDecluster(m Model, nJI, baseN, width, bits, pi, windowTuples int) Cost {
	cluster := RadixCluster(m, nJI, pairBytes, []int{bits})
	posL := ClustPosJoin(m, nJI, baseN, width, bits).Scale(float64(pi))
	recluster := RadixCluster(m, nJI, pairBytes, []int{bits})
	posS := ClustPosJoin(m, nJI, baseN, width, bits).Scale(float64(pi))
	decl := Decluster(m, nJI, width, bits, windowTuples).Scale(float64(pi))
	return cluster.Add(posL).Add(recluster).Add(posS).Add(decl)
}

// PreProjectionRows models the pre-projection strategies (DSM-pre-
// phash and the NSM-pre variants): wide-tuple stitching scans, then a
// partitioned (bits > 0) or naive (bits = 0) hash-join through which
// the whole [key|π] records travel — the "extra luggage" whose width
// inflation the paper charges against pre-projection (§4.2).
func PreProjectionRows(m Model, nL, nS, lwBytes, swBytes, bits, nOut int) Cost {
	scan := m.STrav(Region{N: nL, Width: lwBytes}).
		Add(m.STrav(Region{N: nS, Width: swBytes})).
		Add(Cost{CPU: cpuPosJoin * float64(nL+nS)})
	total := scan
	if bits > 0 {
		total = total.Add(RadixCluster(m, nL, lwBytes, []int{bits})).
			Add(RadixCluster(m, nS, swBytes, []int{bits}))
	}
	return total.Add(PartitionedHashJoin(m, nL, nS, swBytes, bits, nOut))
}

// NSMPostDecluster models the NSM post-projection strategy with the
// Radix algorithms: key-extraction scans over the ω-wide records, the
// partitioned hash-join on the extracted keys, partial cluster of the
// join-index, clustered record gathers on both sides (each lookup
// drags a full ω-wide record — the §4.2 tuple-width penalty), the
// re-cluster, and the row Radix-Decluster over the projected records.
func NSMPostDecluster(m Model, nJI, baseN, omegaBytes, projBytes, bits, windowTuples int) Cost {
	scan := m.STrav(Region{N: 2 * baseN, Width: omegaBytes})
	jn := RadixCluster(m, 2*baseN, pairBytes, []int{bits}).
		Add(PartitionedHashJoin(m, baseN, baseN, pairBytes, bits, nJI))
	reorder := RadixCluster(m, nJI, pairBytes, []int{bits}).Scale(2) // cluster + re-cluster
	gathers := ClustPosJoin(m, nJI, baseN, omegaBytes, bits).Scale(2)
	decl := Decluster(m, nJI, max(projBytes, 4), bits, windowTuples)
	return scan.Add(jn).Add(reorder).Add(gathers).Add(decl)
}

// JivePost models NSM post-projection with Jive-Join: key scans, the
// partitioned hash-join, a full Radix-Sort of the join-index on the
// left oids, and the two Jive phases over ω-wide records.
func JivePost(m Model, nJI, leftN, rightN, omegaBytes, projBytes, bits int) Cost {
	scan := m.STrav(Region{N: leftN + rightN, Width: omegaBytes})
	jn := RadixCluster(m, leftN+rightN, pairBytes, []int{bits}).
		Add(PartitionedHashJoin(m, leftN, rightN, pairBytes, bits, nJI))
	sortBits := max(1, mem.Log2Ceil(leftN))
	srt := RadixCluster(m, nJI, pairBytes, radix.SplitBits(sortBits, 12))
	left := LeftJive(m, nJI, leftN, omegaBytes, bits)
	right := RightJive(m, nJI, rightN, max(projBytes, 4), bits)
	return scan.Add(jn).Add(srt).Add(left).Add(right)
}

func ceilDiv(a, b int) int {
	if b <= 0 {
		return a
	}
	return (a + b - 1) / b
}
