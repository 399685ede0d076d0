package exec

// Parallel Jive-Join phases. The left phase is a fan-out scatter with
// the same structure as the parallel Radix-Cluster: chunks of the
// (left-sorted) join-index histogram privately, a chunked-parallel
// prefix sum — clusters outermost, chunks in input order — hands every
// chunk disjoint insertion cursors, and the chunk scatters reproduce
// the serial cluster contents in global input order. The right phase's
// clusters own disjoint result ranges (ResultPos is the identity
// within a cluster), so cluster groups are independent morsels.

import (
	"fmt"

	"radixdecluster/internal/bat"
	"radixdecluster/internal/jive"
	"radixdecluster/internal/join"
	"radixdecluster/internal/mempool"
	"radixdecluster/internal/nsm"
)

// JiveLeft is the left Jive phase: the left-phase merge of the sorted
// join-index with the left relation, fanning out into 2^bits clusters —
// serially jive.LeftRowsInto, else chunked over join-index ranges. Its three arrays are intermediates the right
// phase and the result assembly read, and leased.
func (e *Engine) JiveLeft(ji *join.Index, left *nsm.Relation, leftCols []int, rightLen, bits int) (*jive.LeftRowsResult, error) {
	n := ji.Len()
	ml := e.mem()
	rightOIDs, resultPos := mempool.Slice[OID](ml, n), mempool.Slice[OID](ml, n)
	leftRows := mempool.Slice[int32](ml, n*len(leftCols))
	// Beyond maxFirstPassBits the per-chunk histograms (chunks × 2^bits
	// cursors) stop fitting private cache slices — and would balloon
	// memory — so the serial left phase takes over, exactly like the
	// clustering operators' fan-out cap.
	if e.serial(n) || bits > maxFirstPassBits {
		return jive.LeftRowsInto(ji, left, leftCols, rightLen, bits, rightOIDs, resultPos, leftRows)
	}
	if bits < 0 {
		return nil, fmt.Errorf("jive: bad cluster bits %d", bits)
	}
	shift := jive.ClusterShift(rightLen, bits)
	h := 1 << bits
	chunks := e.chunksFor(n)
	nch := len(chunks)

	// Pass 1: per-chunk histograms. The leased counts arrive dirty, so
	// each task zeroes its own row before counting into it.
	counts := mempool.Slice[int](e.mem(), nch*h)
	errs := e.errSlots(nch)
	e.run(nch, func(_, t int, _ *Scratch) {
		row := counts[t*h : (t+1)*h]
		for i := range row {
			row[i] = 0
		}
		errs[t] = jive.CountRowsChunk(row, ji.Smaller, shift, rightLen,
			chunks[t].Lo, chunks[t].Hi)
	})
	if err := firstErr(errs); err != nil {
		return nil, err
	}

	// Prefix sum (chunked parallel beyond the fallback threshold):
	// counts becomes per-(chunk, cluster) insertion cursors, offsets
	// the cluster starts — identical to the serial left phase's
	// extents.
	offsets := e.prefixSumChunksParallel(counts, h, nch)

	// Pass 2: chunk scatters through disjoint cursors.
	out := jive.NewLeftRowsResult(left.Name+"_proj", n, leftCols, offsets, bits, rightOIDs, resultPos, leftRows)
	e.run(nch, func(_, t int, _ *Scratch) {
		errs[t] = jive.ScatterRowsChunk(out, ji, left, leftCols, counts[t*h:(t+1)*h], shift,
			chunks[t].Lo, chunks[t].Hi)
	})
	if err := firstErr(errs); err != nil {
		return nil, err
	}
	return out, nil
}

// JiveRight is the right Jive phase — serially jive.RightRowsInto, else
// cluster groups as morsels, each sorting its clusters' oids and
// writing the projected right fields into its own disjoint result
// ranges of a leased relation (the result assembly reads it).
func (e *Engine) JiveRight(lr *jive.LeftRowsResult, right *nsm.Relation, rightCols []int) (*nsm.Relation, error) {
	n := len(lr.RightOIDs)
	out := e.leasedRelation(right.Name+"_proj", n, len(rightCols))
	if e.serial(n) {
		if err := jive.RightRowsInto(out, lr, right, rightCols); err != nil {
			return nil, err
		}
		return out, nil
	}
	borders := bat.BordersFromOffsets(lr.Borders)
	groups := groupBorders(borders, e.workers*morselsPerWorker, n)
	errs := e.errSlots(len(groups))
	e.run(len(groups), func(_, t int, _ *Scratch) {
		var perm []int // sort scratch reused across the group's clusters
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
