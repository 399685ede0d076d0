package exec

// Partitioned Hash-Join: after the Radix-Cluster of both inputs into
// BUNs, every partition pair is an independent morsel — its hash table
// and probe stream fit one cache-sized region (§2.1), and partitions
// share nothing. Workers claim partitions from the morsel queue (skewed
// partitions simply occupy a worker longer while the others drain the
// queue), collect per-partition match lists, and the lists are stitched
// into the join-index in partition order — the order the loop in
// join.PartitionedPreclusteredInto appends them, so the join-index is
// the same on every engine.
//
// PartitionedJoin clusters both inputs per query; ProjectImages probes
// join images, clustered once for many queries, with the same morsels,
// and fetches each partition from its match list instead of stitching.

import (
	"sync"
	"sync/atomic"

	"radixdecluster/internal/join"
	"radixdecluster/internal/mempool"
	"radixdecluster/internal/radix"
)

// PartitionedJoin is the Partitioned Hash-Join producing a join-index
// (Figure 2): it radix-clusters both inputs on o.Bits hashed key bits
// (ClusterBUNs) and hash-joins every matching partition pair as a
// morsel (join.ProbeBUNs), stitching the per-partition lists in
// partition order. The clustered BUNs are leased and go back once the
// probes have read them; the join-index is leased.
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
	n := len(largerOIDs) + len(smallerOIDs)
	ix, parts := e.stitch(n, cl.Offsets, e.probeEach(n, cl.Offsets, cs.Offsets, func(pt int, out *join.Index, ts *join.TableScratch) {
		ll, lh := cl.Offsets[pt], cl.Offsets[pt+1]
		sl, sh := cs.Offsets[pt], cs.Offsets[pt+1]
		if ll < lh && sl < sh {
			join.ProbeBUNs(cs.BUNs[sl:sh], cl.BUNs[ll:lh], shift, out, ts)
		}
	}, nil))
	Return(e, parts)
	Return(e, cl.BUNs, cs.BUNs)
	return ix, nil
}

// matchLists are probeEach's per-partition match lists before the
// stitch: partition p's list is larger/smaller[starts[p] : starts[p]+counts[p]]
// of two leased arenas — or overflow[p], when it outgrew its carving.
type matchLists struct {
	larger, smaller []OID
	starts, counts  []int
	overflow        map[int]join.Index
}

// list is partition pt's match list.
func (m matchLists) list(pt int) join.Index {
	if part, ok := m.overflow[pt]; ok {
		return part
	}
	at, k := m.starts[pt], m.counts[pt]
	return join.Index{Larger: m.larger[at : at+k], Smaller: m.smaller[at : at+k]}
}

// carvings numbers the calls that carve per-partition lists from shared
// arenas (probeEach, PartitionedRowsJoin), so a scratch's continuation
// never outlives the call that set it.
var carvings atomic.Uint64

// continuation is where a scratch's last list ended: partition pt of
// carving call seq may start its list there, in the free tail of
// partition pt-1's carving, instead of at its own.
type continuation struct {
	seq     uint64
	pt, end int
}

// carve returns where partition pt of carving call seq starts its list:
// where this scratch's list of partition pt-1 of the same call ended —
// that partition is done, and its carving's tail no other partition
// writes — or lo, the partition's own carving. An inline run takes the
// partitions in order on one scratch, so its lists lie back to back, as
// one loop appending them would leave them, and the stitch hands them
// on without a copy.
func (s *Scratch) carve(seq uint64, pt, lo int) int {
	if s.cont.seq == seq && s.cont.pt == pt {
		return s.cont.end
	}
	return lo
}

// carved records where partition pt's list ended, for partition pt+1 to
// continue from; a list that outgrew its carving (ok false) leaves none.
func (s *Scratch) carved(seq uint64, pt, end int, ok bool) {
	s.cont = continuation{}
	if ok {
		s.cont = continuation{seq, pt + 1, end}
	}
}

// probeEach runs probe over every partition pair of an n-item join, one
// morsel per partition (task p is partition p), each appending its matches
// to a private list — then, when set, runs then over the list while it
// is still in the worker's caches. lOffs and sOffs are the two sides'
// partition offsets: a partition's list has room for at least one match
// per larger tuple, and its hash table for its smaller partition. stitch
// makes the lists the join-index.
func (e *Engine) probeEach(n int, lOffs, sOffs []int, probe func(pt int, out *join.Index, ts *join.TableScratch), then func(pt int, part join.Index, s *Scratch)) matchLists {
	h := len(lOffs) - 1

	// Each partition's list is carved from two leased arenas at its
	// larger-side offset (or where the scratch's list of the partition
	// before it ended, carve) up to the next partition's offset, a hard
	// cap (three-index): the probe kernels write matches by index up to
	// that cap, so the lists stay disjoint, and an overflowing partition
	// (duplicate smaller keys) moves to a private GC slice instead of
	// clobbering its neighbour. Per partition only the list's start and
	// match count are kept — leased, nothing for the GC to scan — plus,
	// rarely, the list that overflowed.
	ml := e.mem()
	m := matchLists{
		larger:  mempool.Slice[OID](ml, lOffs[h]),
		smaller: mempool.Slice[OID](ml, lOffs[h]),
		starts:  mempool.Slice[int](ml, h),
		counts:  mempool.Slice[int](ml, h),
	}
	var mu sync.Mutex
	seq := carvings.Add(1)
	e.run(n, h, func(pt int, s *Scratch) {
		at, lh := s.carve(seq, pt, lOffs[pt]), lOffs[pt+1]
		s.part = join.Index{Larger: m.larger[at:at:lh], Smaller: m.smaller[at:at:lh]}
		probe(pt, &s.part, s.table(sOffs[pt+1]-sOffs[pt]))
		m.starts[pt], m.counts[pt] = at, s.part.Len()
		s.carved(seq, pt, at+m.counts[pt], m.counts[pt] <= lh-at)
		if m.counts[pt] > lh-at {
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
		s.part = join.Index{} // the scratch outlives the query's arrays
	})
	return m
}

// stitch makes probeEach's lists of an n-item join the join-index, in
// partition order, and returns it with the offsets of the partitions'
// lists in it (leased), handing the arenas back when it copies them.
func (e *Engine) stitch(n int, lOffs []int, m matchLists) (*join.Index, []int) {
	// Prefix-sum the match counts. When every list lies where the
	// concatenation puts it — each filled its carving (the key-FK case:
	// one match per probe tuple, so none overflowed), or the lists of an
	// inline run lie back to back (Scratch.carve) — the arenas already are
	// the join-index in partition order.
	h, ml := len(lOffs)-1, e.mem()
	offs := mempool.Slice[int](ml, h+1)
	offs[0] = 0
	inPlace := m.overflow == nil
	for pt := 0; pt < h; pt++ {
		inPlace = inPlace && (m.counts[pt] == 0 || offs[pt] == m.starts[pt])
		offs[pt+1] = offs[pt] + m.counts[pt]
	}
	if inPlace {
		Return(e, m.starts, m.counts)
		return &join.Index{Larger: m.larger[:offs[h]], Smaller: m.smaller[:offs[h]]}, offs
	}
	// Otherwise copy each partition's list into its disjoint output
	// range. The join-index never leaves the pipeline, so it is leased
	// like every other transient.
	out := &join.Index{
		Larger:  mempool.Slice[OID](ml, offs[h]),
		Smaller: mempool.Slice[OID](ml, offs[h]),
	}
	e.run(n, h, func(pt int, _ *Scratch) {
		part := m.list(pt)
		copy(out.Larger[offs[pt]:offs[pt+1]], part.Larger)
		copy(out.Smaller[offs[pt]:offs[pt+1]], part.Smaller)
	})
	Return(e, m.larger, m.smaller)
	Return(e, m.starts, m.counts)
	return out, offs
}
