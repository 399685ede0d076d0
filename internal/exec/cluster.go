package exec

// Radix-Cluster on the engine: radix.Cluster, the one pass driver,
// with a pass split and a task runner this engine picks.
//
// The substrate clusters stably: tuples of equal radix value keep their
// input order. The driver reproduces that arrangement on any chunking:
//
//  1. The input is cut into contiguous chunks (morsels); each task
//     histograms its chunk privately.
//  2. A prefix sum over (cluster, chunk) — clusters outermost, chunks
//     in input order — turns the histograms into disjoint insertion
//     cursors: chunk k's slice of cluster c starts where chunk k-1's
//     ends (radix.ChunkCursors).
//  3. Each task scatters its chunk through its private cursors.
//
// Within each cluster the tuples appear chunk by chunk, and chunks
// are contiguous input ranges in order, so every cluster receives its
// tuples in global input order — the stable result, independent of
// worker count and chunk boundaries.
//
// The kernels are internal/radix's typed chunk loops, invoked once per
// morsel, reading the caller's columns where they lie and deriving the
// clustering value (a key's hash, the hash a BUN carries, an oid's own
// bits) inside the loop, so no radix column is materialised.
//
// The pass split follows the chunking (Engine.split): one chunk runs the
// plan's passes — the paper's schedule, sized to the cache — and a
// chunked first pass takes at most maxFirstPassBits, the rest being
// refined per first-pass cluster, each an independent morsel, in
// passes of at most as many bits. Stable-by-high-bits followed by
// stable-by-low-bits equals stable-by-all-bits, so every split gives
// the same bytes.

import (
	"fmt"

	"radixdecluster/internal/bat"
	"radixdecluster/internal/core"
	"radixdecluster/internal/mem"
	"radixdecluster/internal/mempool"
	"radixdecluster/internal/radix"
)

// OID mirrors bat.OID.
type OID = bat.OID

const (
	// maxFirstPassBits caps a chunked pass's fan-out: 2^12 insertion
	// cursors per chunk keep the per-chunk histogram (32KB of ints)
	// inside a private cache slice.
	maxFirstPassBits = 12
	// MinParallelN is the cardinality below which fan-out overhead
	// exceeds the win: an operator over fewer items runs its morsel
	// bodies inline, as one morsel per chunked range (run, morsels).
	// Exported so callers can stay off the runtime entirely (and report
	// serial execution) for small inputs.
	MinParallelN = 1 << 14
)

// split picks how a clustering of n tuples on o runs: over how many
// chunks its first pass runs (morsels), and its pass split. One chunk
// runs o's own passes. A chunked first pass takes min(Bits,
// maxFirstPassBits) bits, so the nch histograms stay in private cache
// slices, and the remaining bits follow in balanced passes of at most
// maxFirstPassBits.
func (e *Engine) split(n int, o radix.Opts) (nch int, passes []int) {
	nch = e.morsels(n)
	if nch == 1 {
		return 1, o.Schedule()
	}
	b1 := min(o.Bits, maxFirstPassBits)
	return nch, append([]int{b1}, radix.SplitBits(o.Bits-b1, maxFirstPassBits)...)
}

// leaseBufs leases the ping-pong buffers of size values a clustering on
// passes scatters through: a second one only for more than one pass.
func leaseBufs[T any](e *Engine, size int, passes []int) [2][]T {
	ml := e.mem()
	buf := [2][]T{mempool.Slice[T](ml, size)}
	if len(passes) > 1 {
		buf[1] = mempool.Slice[T](ml, size)
	}
	return buf
}

// keep returns the buffer of buf a clustering on passes left its result
// in, handing the other back: dead once the last pass has run.
func keep[T any](e *Engine, buf [2][]T, passes []int) []T {
	r := radix.Result(passes)
	Return(e, buf[1-r])
	return buf[r]
}

// cluster runs radix.Cluster over n tuples through a bound kernel pair
// (radix.PairKernels / BUNKernels / RowKernels) on split's nch and
// passes, every step through run — inline when serial(items) holds, a
// task's row its scratch's — and returns the leased 2^Bits+1 cluster
// offsets.
func (e *Engine) cluster(n int, o radix.Opts, nch int, passes []int, count, scatter radix.ChunkFn) []int {
	ml := e.mem()
	offsets, counts := mempool.Slice[int](ml, 1<<o.Bits+1), mempool.Slice[int](ml, nch<<passes[0])
	radix.Cluster(offsets, counts, n, o.Ignore, passes, nch, e.runner(), count, scatter)
	Return(e, counts)
	return offsets
}

// runner is the radix.Runner of this engine: each step runs through
// run, and a task's row is its scratch's.
func (e *Engine) runner() radix.Runner {
	return func(items, ntasks, rowLen int, body func(t int, row []int)) {
		e.run(items, ntasks, func(t int, s *Scratch) { body(t, s.Ints(rowLen)) })
	}
}

// ClusterBUNs radix-clusters an [oid,value] BAT — a join input — on the
// hash of its value column into leased BUNs (each value carried as its
// hash; radix.BUNKernels) and offsets.
func (e *Engine) ClusterBUNs(heads []OID, vals []int32, o radix.Opts) (*radix.BUNsResult, error) {
	if len(heads) != len(vals) {
		return nil, fmt.Errorf("radix: ClusterBUNs: %d heads vs %d values", len(heads), len(vals))
	}
	if err := o.Validate(); err != nil {
		return nil, err
	}
	n := len(vals)
	nch, passes := e.split(n, o)
	buf := leaseBufs[uint64](e, n, passes)
	count, scatter := radix.BUNKernels(vals, heads, buf)
	offsets := e.cluster(n, o, nch, passes, count, scatter)
	return &radix.BUNsResult{BUNs: keep(e, buf, passes), Offsets: offsets}, nil
}

// ClusterOIDPairs radix-clusters an [oid,oid] BAT (e.g. a join-index)
// on the key column's own bits (§3.1: dense oids are not hashed) into
// leased columns and offsets — radix.ClusterOIDPairs' arrangement.
func (e *Engine) ClusterOIDPairs(key, other []OID, o radix.Opts) (*radix.OIDPairsResult, error) {
	if len(key) != len(other) {
		return nil, fmt.Errorf("radix: ClusterOIDPairs: %d keys vs %d others", len(key), len(other))
	}
	if err := o.Validate(); err != nil {
		return nil, err
	}
	n := len(key)
	nch, passes := e.split(n, o)
	bufK, bufO := leaseBufs[OID](e, n, passes), leaseBufs[OID](e, n, passes)
	count, scatter := radix.PairKernels(key, other, bufK, bufO)
	offsets := e.cluster(n, o, nch, passes, count, scatter)
	return &radix.OIDPairsResult{Key: keep(e, bufK, passes), Other: keep(e, bufO, passes), Offsets: offsets}, nil
}

// SortOIDPairs is radix.SortOIDPairs on this engine: a full Radix-Sort
// of an [oid,oid] BAT on the key column, every significant bit of its
// largest oid split into passes of at most radix.MaxBitsPerPass(h).
func (e *Engine) SortOIDPairs(key, other []OID, h mem.Hierarchy) (*radix.OIDPairsResult, error) {
	// The sort's bit width is only known after this max scan.
	chunks := e.chunksFor(len(key))
	maxs := mempool.Slice[OID](e.mem(), len(chunks))
	e.run(len(key), len(chunks), func(t int, _ *Scratch) {
		m := OID(0)
		for _, k := range key[chunks[t].Lo:chunks[t].Hi] {
			m = max(m, k)
		}
		maxs[t] = m
	})
	maxKey := OID(0)
	for _, m := range maxs {
		maxKey = max(maxKey, m)
	}
	return e.ClusterOIDPairs(key, other, radix.SortOpts(maxKey, h))
}

// ClusterForDecluster performs the Figure-4 re-clustering on this
// engine's clustering operator.
func (e *Engine) ClusterForDecluster(smallerOIDs []OID, o radix.Opts) (*core.Clustered, error) {
	return core.ClusterForDeclusterWith(smallerOIDs, o, e.ClusterOIDPairs)
}
