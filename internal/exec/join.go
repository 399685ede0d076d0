package exec

// Parallel Partitioned Hash-Join: after the parallel Radix-Cluster of
// both inputs into BUNs, every partition pair is an independent morsel
// — its hash table and probe stream fit one cache-sized region (§2.1), and
// partitions share nothing. Workers claim partitions from the morsel
// queue (skewed partitions simply occupy a worker longer while the
// others drain the queue), collect per-partition match lists, and the
// lists are stitched into the join-index in partition order — the
// exact order the serial loop in join.PartitionedPreclustered appends
// them, so the resulting join-index is byte-identical.
//
// The two halves are separate operators: PartitionedJoin clusters both
// inputs and hands them to ProbePartitions, which a caller holding
// inputs clustered once for many queries calls alone.

import (
	"math/bits"

	"radixdecluster/internal/join"
	"radixdecluster/internal/mempool"
	"radixdecluster/internal/radix"
)

// PartitionedJoin is the Partitioned Hash-Join producing a join-index,
// the parallel equivalent of join.Partitioned: it radix-clusters both
// inputs on o.Bits hashed key bits and hash-joins matching partition
// pairs concurrently (ProbePartitions), producing the identical
// join-index.
func (e *Engine) PartitionedJoin(largerOIDs []OID, largerKeys []int32, smallerOIDs []OID, smallerKeys []int32, o radix.Opts) (*join.Index, error) {
	if e.serial(len(largerOIDs) + len(smallerOIDs)) {
		return join.Partitioned(largerOIDs, largerKeys, smallerOIDs, smallerKeys, o)
	}
	cl, err := e.ClusterBUNs(largerOIDs, largerKeys, true, o)
	if err != nil {
		return nil, err
	}
	cs, err := e.ClusterBUNs(smallerOIDs, smallerKeys, true, o)
	if err != nil {
		return nil, err
	}
	return e.ProbePartitions(cl, cs, uint(o.Ignore+o.Bits))
}

// ProbePartitions is the probe half of the Partitioned Hash-Join, the
// parallel equivalent of join.PartitionedPreclustered: it hash-joins
// every pair of matching partitions of two inputs radix-clustered on
// the same bits (shift = the clustering's Ignore+Bits) concurrently and
// returns the join-index in partition order. The inputs are only read.
func (e *Engine) ProbePartitions(cl, cs *radix.BUNsResult, shift uint) (*join.Index, error) {
	// The serial loop also reports mismatched partition counts.
	if e.serial(len(cl.BUNs)+len(cs.BUNs)) || len(cl.Offsets) != len(cs.Offsets) {
		return join.PartitionedPreclustered(cl, cs, shift)
	}
	h := len(cl.Offsets) - 1

	// Each partition pair is one morsel producing a private match
	// list, homed (affinity key) on the worker that owns its level-1
	// radix parent — when this query clustered the inputs, the
	// partition's bytes are still in that worker's private caches from
	// the clustering refinement.
	l1 := level1Shift(bits.Len(uint(h)) - 1)
	aff := func(pt int) uint64 { return uint64(pt) >> l1 }

	// parts holds slice headers the GC must scan, so it stays a plain
	// allocation; the match-list *backing* is leased. Each partition's
	// list is carved from two big arenas at its larger-side offset with
	// a hard cap (three-index): ProbeBUNs writes matches by index up to
	// that cap, so the lists stay disjoint, and an overflowing partition
	// (duplicate smaller keys) moves to a private GC slice instead of
	// clobbering its neighbour.
	ml := e.mem()
	bigL := mempool.Slice[OID](ml, len(cl.BUNs))
	bigS := mempool.Slice[OID](ml, len(cl.BUNs))
	parts := make([]join.Index, h)
	for pt := 0; pt < h; pt++ {
		ll, lh := cl.Offsets[pt], cl.Offsets[pt+1]
		parts[pt].Larger = bigL[ll:ll:lh]
		parts[pt].Smaller = bigS[ll:ll:lh]
	}
	e.runAff(h, aff, func(_, pt int, s *Scratch) {
		ll, lh := cl.Offsets[pt], cl.Offsets[pt+1]
		sl, sh := cs.Offsets[pt], cs.Offsets[pt+1]
		if ll == lh || sl == sh {
			return
		}
		join.ProbeBUNs(cs.BUNs[sl:sh], cl.BUNs[ll:lh], shift, &parts[pt], &s.tjoin)
	})

	// Stitch in partition order: prefix-sum the match counts. When every
	// list filled its carving exactly — the key-FK case: one match per
	// probe tuple, so none overflowed — the arenas already are the
	// join-index in partition order.
	offs := mempool.Slice[int](ml, h+1)
	offs[0] = 0
	full := true
	for pt := 0; pt < h; pt++ {
		offs[pt+1] = offs[pt] + parts[pt].Len()
		full = full && offs[pt+1] == cl.Offsets[pt+1]
	}
	if full {
		return &join.Index{Larger: bigL, Smaller: bigS}, nil
	}
	// Otherwise copy each partition's list into its disjoint output
	// range. The join-index never leaves the pipeline, so it is leased
	// like every other transient.
	out := &join.Index{
		Larger:  mempool.Slice[OID](ml, offs[h]),
		Smaller: mempool.Slice[OID](ml, offs[h]),
	}
	e.runAff(h, aff, func(_, pt int, _ *Scratch) {
		copy(out.Larger[offs[pt]:offs[pt+1]], parts[pt].Larger)
		copy(out.Smaller[offs[pt]:offs[pt+1]], parts[pt].Smaller)
	})
	return out, nil
}
