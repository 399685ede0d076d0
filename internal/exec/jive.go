package exec

// Jive-Join phases. The left phase is a fan-out scatter with the same
// structure as the chunked Radix-Cluster pass: chunks of the
// (left-sorted) join-index histogram privately, the (cluster, chunk)
// prefix sum (radix.ChunkCursors) hands every chunk disjoint insertion
// cursors, and the chunk scatters put every cluster's entries in
// global input order. The right phase's clusters own disjoint result
// ranges (ResultPos is the identity within a cluster), so cluster
// groups are independent morsels.

import (
	"fmt"

	"radixdecluster/internal/jive"
	"radixdecluster/internal/join"
	"radixdecluster/internal/mempool"
	"radixdecluster/internal/nsm"
	"radixdecluster/internal/radix"
)

// JiveLeft is the left Jive phase: the left-phase merge of the sorted
// join-index with the left relation, fanning out into 2^bits clusters
// over join-index chunks (jive.CountRowsChunk, jive.ScatterRowsChunk).
// Its three arrays are intermediates the right phase and the result
// assembly read, and leased.
func (e *Engine) JiveLeft(ji *join.Index, left *nsm.Relation, leftCols []int, rightLen, bits int) (*jive.LeftRowsResult, error) {
	if bits < 0 || bits > 30 {
		return nil, fmt.Errorf("jive: bad cluster bits %d", bits)
	}
	n := ji.Len()
	ml := e.mem()
	rightOIDs, resultPos := mempool.Slice[OID](ml, n), mempool.Slice[OID](ml, n)
	leftRows := mempool.Slice[int32](ml, n*len(leftCols))
	shift := jive.ClusterShift(rightLen, bits)
	h := 1 << bits
	// Beyond maxFirstPassBits per-chunk histograms (chunks × 2^bits
	// cursors) stop fitting private cache slices — and would balloon
	// memory — so the phase runs as one chunk, like a clustering's first
	// pass is capped.
	nch := e.morsels(n)
	if bits > maxFirstPassBits {
		nch = 1
	}

	// Pass 1: per-chunk histograms. The leased counts arrive dirty, so
	// each task zeroes its own row before counting into it.
	counts := mempool.Slice[int](ml, nch*h)
	errs := e.errSlots(nch)
	e.run(n, nch, func(t int, _ *Scratch) {
		row := counts[t*h : (t+1)*h]
		clear(row)
		lo, hi := radix.Chunk(n, nch, t)
		errs[t] = jive.CountRowsChunk(row, ji.Smaller, shift, rightLen, lo, hi)
	})
	if err := firstErr(errs); err != nil {
		return nil, err
	}

	// counts becomes per-(chunk, cluster) insertion cursors, offsets the
	// cluster starts.
	offsets := mempool.Slice[int](ml, h+1)
	offsets[h] = n
	radix.ChunkCursors(counts, h, nch, offsets, 1, e.runner())

	// Pass 2: chunk scatters through disjoint cursors.
	out := jive.NewLeftRowsResult(left.Name+"_proj", n, leftCols, offsets, bits, rightOIDs, resultPos, leftRows)
	e.run(n, nch, func(t int, _ *Scratch) {
		lo, hi := radix.Chunk(n, nch, t)
		errs[t] = jive.ScatterRowsChunk(out, ji, left, leftCols, counts[t*h:(t+1)*h], shift, lo, hi)
	})
	if err := firstErr(errs); err != nil {
		return nil, err
	}
	return out, nil
}

// JiveRight is the right Jive phase over cluster groups as morsels,
// each sorting its clusters' oids and writing the projected right
// fields into its own disjoint result ranges of a leased relation (the
// result assembly reads it).
func (e *Engine) JiveRight(lr *jive.LeftRowsResult, right *nsm.Relation, rightCols []int) (*nsm.Relation, error) {
	n := len(lr.RightOIDs)
	out := e.leasedRelation(right.Name+"_proj", n, len(rightCols))
	groups := e.clusterGroups(n, len(lr.Borders)-1, func(c int) int { return lr.Borders[c+1] })
	errs := e.errSlots(len(groups))
	e.run(n, len(groups), func(t int, s *Scratch) {
		largest := 0
		for c := groups[t].Lo; c < groups[t].Hi; c++ {
			largest = max(largest, lr.Borders[c+1]-lr.Borders[c])
		}
		perm := s.Ints(largest) // sort scratch for the group's clusters
		for c := groups[t].Lo; c < groups[t].Hi; c++ {
			if lr.Borders[c] == lr.Borders[c+1] {
				continue
			}
			var err error
			perm, err = jive.RightRowsCluster(out, lr, right, rightCols, c, perm)
			if err != nil {
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
