package exec

// Parallel Partitioned Hash-Join: after the parallel Radix-Cluster of
// both inputs into BUNs, every partition pair is an independent morsel
// — its hash table and probe stream fit one cache-sized region (§2.1), and
// partitions share nothing. Workers claim partitions from the morsel
// queue (skewed partitions simply occupy a worker longer while the
// others drain the queue), collect per-partition match lists, and the
// lists are stitched into the join-index in partition order — the
// exact order the serial loop in join.PartitionedPreclusteredInto
// appends them, so the resulting join-index is byte-identical.
//
// PartitionedJoin clusters both inputs per query; ProjectImages probes
// join images, clustered once for many queries, with the same morsels
// and stitch, and fetches each partition in its probe's morsel.

import (
	"math/bits"
	"sync"

	"radixdecluster/internal/join"
	"radixdecluster/internal/mempool"
	"radixdecluster/internal/radix"
)

// PartitionedJoin is the Partitioned Hash-Join producing a join-index
// (Figure 2): it radix-clusters both inputs on o.Bits hashed key bits
// (ClusterBUNs) and hash-joins matching partition pairs — serially
// through join.PartitionedPreclusteredInto, else concurrently
// (join.ProbeBUNs per partition), producing the identical join-index. The clustered BUNs are leased and go back once the probe
// has read them; the join-index is leased.
func (e *Engine) PartitionedJoin(largerOIDs []OID, largerKeys []int32, smallerOIDs []OID, smallerKeys []int32, o radix.Opts) (*join.Index, error) {
	if err := join.CheckInputs(largerOIDs, largerKeys, smallerOIDs, smallerKeys); err != nil {
		return nil, err
	}
	cl, err := e.ClusterBUNs(largerOIDs, largerKeys, o)
	if err != nil {
		return nil, err
	}
	cs, err := e.ClusterBUNs(smallerOIDs, smallerKeys, o)
	if err != nil {
		return nil, err
	}
	shift := uint(o.Ignore + o.Bits)
	var ix *join.Index
	if e.serial(len(largerOIDs) + len(smallerOIDs)) {
		// Leased room for one match per larger tuple: the probes regrow
		// the join-index onto the GC heap only past that.
		ml, n := e.mem(), len(largerOIDs)
		ix = &join.Index{Larger: mempool.SliceCap[OID](ml, 0, n), Smaller: mempool.SliceCap[OID](ml, 0, n)}
		ts, first, next := e.leasedTable(cs.Offsets)
		err = join.PartitionedPreclusteredInto(ix, &ts, cl, cs, shift)
		Return(e, first, next)
	} else {
		var parts []int
		ix, parts = e.stitch(cl.Offsets, e.probeEach(cl.Offsets, nil, func(pt int, out *join.Index, ts *join.TableScratch) {
			ll, lh := cl.Offsets[pt], cl.Offsets[pt+1]
			sl, sh := cs.Offsets[pt], cs.Offsets[pt+1]
			if ll < lh && sl < sh {
				join.ProbeBUNs(cs.BUNs[sl:sh], cl.BUNs[ll:lh], shift, out, ts)
			}
		}, nil), nil)
		Return(e, parts)
	}
	Return(e, cl.BUNs, cs.BUNs)
	if err != nil {
		return nil, err
	}
	return ix, nil
}

// leasedTable is the hash-table scratch of a serial partitioned probe
// whose table side is partitioned at offs: leased arrays for its
// largest partition, so no probe allocates. The arrays are returned
// too, for Return once the probes are done.
func (e *Engine) leasedTable(offs []int) (ts join.TableScratch, first, next []int32) {
	m := 0
	for p := 0; p+1 < len(offs); p++ {
		m = max(m, offs[p+1]-offs[p])
	}
	ml := e.mem()
	first, next = mempool.Slice[int32](ml, join.TableBuckets(m)), mempool.Slice[int32](ml, m)
	return join.TableScratchOver(first, next), first, next
}

// partitionAff is the affinity key of a morsel over one of h radix
// partitions: the partition's level-1 radix parent. Every operator that
// runs per partition homes partition p on the same worker — when this
// query clustered the inputs, the partition's bytes are still in that
// worker's private caches from the clustering refinement, and the fetch
// after a probe finds the partition's match list where the probe wrote
// it.
func partitionAff(h int) func(pt int) uint64 {
	l1 := level1Shift(bits.Len(uint(h)) - 1)
	return func(pt int) uint64 { return uint64(pt) >> l1 }
}

// eachPartition runs body over partitions 0..h-1: in order on the
// caller's goroutine with s when s is set (a serial run), else as one
// morsel per partition on the workers' scratch, homed by partitionAff.
func (e *Engine) eachPartition(h int, s *Scratch, body func(pt int, s *Scratch)) {
	if s != nil {
		for pt := range h {
			body(pt, s)
		}
		return
	}
	e.runAff(h, partitionAff(h), func(_, pt int, ws *Scratch) { body(pt, ws) })
}

// matchLists are probeEach's per-partition match lists before the
// stitch: partition p's list is larger/smaller[lOffs[p] : lOffs[p]+counts[p]]
// of two leased arenas — or overflow[p], when it outgrew that carving.
type matchLists struct {
	larger, smaller []OID
	counts          []int
	overflow        map[int]join.Index
}

// probeEach runs probe over every partition pair, each appending its
// matches to a private list — then, when set, runs over the list while
// it is still in the worker's caches. Partitions run as eachPartition
// runs them: serially with s, else one morsel each. lOffs are the
// larger side's partition offsets: a partition's list is sized for one
// match per larger tuple. stitch makes the lists the join-index.
func (e *Engine) probeEach(lOffs []int, s *Scratch, probe func(pt int, out *join.Index, ts *join.TableScratch), then func(pt int, part join.Index, s *Scratch)) matchLists {
	h, n := len(lOffs)-1, lOffs[len(lOffs)-1]

	// Each partition's list is carved from two leased arenas at its
	// larger-side offset with a hard cap (three-index): the probe kernels
	// write matches by index up to that cap, so the lists stay disjoint,
	// and an overflowing partition (duplicate smaller keys) moves to a
	// private GC slice instead of clobbering its neighbour. Per partition
	// only the match count is kept — leased, nothing for the GC to scan —
	// plus, rarely, the list that overflowed.
	ml := e.mem()
	m := matchLists{
		larger:  mempool.Slice[OID](ml, n),
		smaller: mempool.Slice[OID](ml, n),
		counts:  mempool.Slice[int](ml, h),
	}
	var mu sync.Mutex
	e.eachPartition(h, s, func(pt int, s *Scratch) {
		ll, lh := lOffs[pt], lOffs[pt+1]
		s.part = join.Index{Larger: m.larger[ll:ll:lh], Smaller: m.smaller[ll:ll:lh]}
		probe(pt, &s.part, &s.tjoin)
		m.counts[pt] = s.part.Len()
		if m.counts[pt] > lh-ll {
			mu.Lock()
			if m.overflow == nil {
				m.overflow = make(map[int]join.Index)
			}
			m.overflow[pt] = s.part
			mu.Unlock()
		}
		if then != nil {
			then(pt, s.part, s)
		}
		s.part = join.Index{} // the worker outlives the query's arrays
	})
	return m
}

// stitch makes probeEach's lists the join-index, in partition order,
// and returns it with the offsets of the partitions' lists in it
// (leased), handing the arenas back when it copies them.
func (e *Engine) stitch(lOffs []int, m matchLists, s *Scratch) (*join.Index, []int) {
	// Prefix-sum the match counts. When every list filled its carving
	// exactly — the key-FK case: one match per probe tuple, so none
	// overflowed — the arenas already are the join-index in partition
	// order.
	h, ml := len(lOffs)-1, e.mem()
	offs := mempool.Slice[int](ml, h+1)
	offs[0] = 0
	full := true
	for pt := 0; pt < h; pt++ {
		offs[pt+1] = offs[pt] + m.counts[pt]
		full = full && offs[pt+1] == lOffs[pt+1]
	}
	Return(e, m.counts)
	if full {
		return &join.Index{Larger: m.larger, Smaller: m.smaller}, offs
	}
	// Otherwise copy each partition's list into its disjoint output
	// range. The join-index never leaves the pipeline, so it is leased
	// like every other transient.
	out := &join.Index{
		Larger:  mempool.Slice[OID](ml, offs[h]),
		Smaller: mempool.Slice[OID](ml, offs[h]),
	}
	e.eachPartition(h, s, func(pt int, _ *Scratch) {
		part, ok := m.overflow[pt]
		if !ok {
			ll, k := lOffs[pt], offs[pt+1]-offs[pt]
			part = join.Index{Larger: m.larger[ll : ll+k], Smaller: m.smaller[ll : ll+k]}
		}
		copy(out.Larger[offs[pt]:offs[pt+1]], part.Larger)
		copy(out.Smaller[offs[pt]:offs[pt+1]], part.Smaller)
	})
	Return(e, m.larger, m.smaller)
	return out, offs
}
