package exec

// Parallel Radix-Cluster: the fan-out pass counts per partition, then
// workers scatter disjoint partition ranges.
//
// The serial engine (internal/radix) clusters stably: tuples of equal
// radix value keep their input order. The parallel engine reproduces
// that arrangement exactly with a chunked count-then-scatter over the
// most-significant b1 radix bits:
//
//  1. The input is cut into contiguous chunks (morsels); each worker
//     histograms its chunks privately.
//  2. A prefix sum over (cluster, chunk) — clusters outermost, chunks
//     in input order — turns the histograms into disjoint insertion
//     cursors: chunk k's slice of cluster c starts where chunk k-1's
//     ends. Clusters are independent columns of the count matrix, so
//     the sum itself runs chunked-parallel on the runtime (serial only
//     below the fallback threshold).
//  3. Workers scatter their chunks through their private cursors.
//
// Within each cluster the tuples appear chunk by chunk, and chunks
// are contiguous input ranges in order, so every cluster receives its
// tuples in global input order — exactly the serial stable result,
// independent of worker count and chunk boundaries.
//
// Steps 1 and 3 are internal/radix's chunk kernels — the same typed
// tight loops the serial engine runs with one chunk per cluster range —
// invoked once per morsel, reading the caller's columns where they lie
// and deriving the clustering value (a key's hash, the hash a BUN
// carries, an oid's own bits) inside the loop, so no radix column is
// materialised.
//
// When B exceeds the single-pass fan-out budget, the remaining low
// bits are clustered per level-1 partition: each partition is an
// independent morsel — one chunk for the same kernel pair — scattered
// into a second buffer. Stable-by-high-bits followed by stable-by-low-
// bits equals stable-by-all-bits, so the two-level result again
// matches the serial one.

import (
	"fmt"
	"unsafe"

	"radixdecluster/internal/bat"
	"radixdecluster/internal/core"
	"radixdecluster/internal/mem"
	"radixdecluster/internal/mempool"
	"radixdecluster/internal/radix"
)

// OID mirrors bat.OID.
type OID = bat.OID

const (
	// maxFirstPassBits caps the level-1 fan-out: 2^12 insertion
	// cursors per chunk keep the per-chunk histogram (16KB of ints)
	// inside a private cache slice.
	maxFirstPassBits = 12
	// maxParallelBits bounds the two-level scheme (12 + 12 bits);
	// beyond it the serial multi-pass engine takes over.
	maxParallelBits = 2 * maxFirstPassBits
	// MinParallelN is the cardinality below which fan-out overhead
	// exceeds the win and every operator falls back to its serial
	// counterpart. Exported so callers can stay on the serial path
	// entirely (and report serial execution) for small inputs.
	MinParallelN = 1 << 14
)

// ClusterBUNs radix-clusters an [oid,value] BAT — a join input — on the
// hash of its value column: serially radix.ClusterBUNsInto, else the
// chunked count-then-scatter producing the identical BUN arrangement
// (each value carried as its hash) and offsets, in leased buffers (one
// per level; the one the result does not live in goes straight back).
func (e *Engine) ClusterBUNs(heads []OID, vals []int32, o radix.Opts) (*radix.BUNsResult, error) {
	if e.serial(len(heads)) || !scatterable(o.Bits) {
		buf := leaseBufs[uint64](e, len(vals), o)
		res, err := radix.ClusterBUNsInto(buf, heads, vals, o)
		if err != nil {
			return nil, err
		}
		returnSpare(e, buf, res.BUNs)
		return res, nil
	}
	if len(heads) != len(vals) {
		return nil, fmt.Errorf("radix: ClusterBUNs: %d heads vs %d values", len(heads), len(vals))
	}
	if err := o.Validate(); err != nil {
		return nil, err
	}
	n, ml := len(vals), e.mem()
	buf := [2][]uint64{mempool.Slice[uint64](ml, n)}
	last := 0
	if o.Bits > maxFirstPassBits {
		buf[1], last = mempool.Slice[uint64](ml, n), 1
	}
	count, scatter := radix.BUNKernels(vals, heads, buf)
	offsets := e.scatter2(n, o, count, scatter)
	returnSpare(e, buf, buf[last])
	return &radix.BUNsResult{BUNs: buf[last], Offsets: offsets}, nil
}

// leaseBufs leases the ping-pong buffers a serial clustering of n
// values on o scatters through (radix's ...Into forms): a second one
// only when o takes more than one pass.
func leaseBufs[T any](e *Engine, n int, o radix.Opts) [2][]T {
	ml := e.mem()
	buf := [2][]T{mempool.Slice[T](ml, n)}
	if o.NumPasses() > 1 {
		buf[1] = mempool.Slice[T](ml, n)
	}
	return buf
}

// returnSpare hands back the buffer of a clustering's ping-pong pair
// its result does not live in: dead once the last pass has run.
func returnSpare[T any](e *Engine, buf [2][]T, kept []T) {
	for _, b := range buf {
		if unsafe.SliceData(b) != unsafe.SliceData(kept) {
			Return(e, b)
		}
	}
}

// clusterPairs is the parallel engine behind ClusterOIDPairs:
// radix.PairKernels driven by scatter2. The scatter targets — one pair
// of columns, two when the fan-out takes a second level — and the
// offsets are leased transients, every slot written.
func clusterPairs[K, P radix.Word](e *Engine, keys []K, pay []P, o radix.Opts) ([]K, []P, []int) {
	n, ml := len(keys), e.mem()
	bufK, bufP := [2][]K{mempool.Slice[K](ml, n)}, [2][]P{mempool.Slice[P](ml, n)}
	last := 0
	if o.Bits > maxFirstPassBits {
		bufK[1], bufP[1], last = mempool.Slice[K](ml, n), mempool.Slice[P](ml, n), 1
	}
	count, scatter := radix.PairKernels(keys, pay, bufK, bufP)
	offsets := e.scatter2(n, o, count, scatter)
	returnSpare(e, bufK, bufK[last])
	returnSpare(e, bufP, bufP[last])
	return bufK[last], bufP[last], offsets
}

// ClusterOIDPairs is the parallel equivalent of radix.ClusterOIDPairs:
// it radix-clusters an [oid,oid] BAT (e.g. a join-index) on the key
// column and produces the identical arrangement and offsets.
func (e *Engine) ClusterOIDPairs(key, other []OID, o radix.Opts) (*radix.OIDPairsResult, error) {
	if e.serial(len(key)) || !scatterable(o.Bits) {
		return e.clusterOIDPairsSerial(key, other, o)
	}
	if len(key) != len(other) {
		return nil, fmt.Errorf("radix: ClusterOIDPairs: %d keys vs %d others", len(key), len(other))
	}
	if err := o.Validate(); err != nil {
		return nil, err
	}
	// Dense oids are their own radix values (§3.1): no hashing.
	outKey, outOther, offsets := clusterPairs(e, key, other, o)
	return &radix.OIDPairsResult{Key: outKey, Other: outOther, Offsets: offsets}, nil
}

// clusterOIDPairsSerial is radix.ClusterOIDPairs into leased buffers.
func (e *Engine) clusterOIDPairsSerial(key, other []OID, o radix.Opts) (*radix.OIDPairsResult, error) {
	bufK, bufO := leaseBufs[OID](e, len(key), o), leaseBufs[OID](e, len(key), o)
	res, err := radix.ClusterOIDPairsInto(bufK, bufO, key, other, o)
	if err != nil {
		return nil, err
	}
	returnSpare(e, bufK, res.Key)
	returnSpare(e, bufO, res.Other)
	return res, nil
}

// SortOIDPairs is the parallel equivalent of radix.SortOIDPairs: a
// full Radix-Sort of an [oid,oid] BAT on the key column.
func (e *Engine) SortOIDPairs(key, other []OID, h mem.Hierarchy) (*radix.OIDPairsResult, error) {
	if e.serial(len(key)) {
		return e.clusterOIDPairsSerial(key, other, radix.SortOpts(key, h))
	}
	// The sort's bit width is only known after this max scan.
	chunks := e.chunksFor(len(key))
	maxs := mempool.Slice[OID](e.mem(), len(chunks))
	e.run(len(chunks), func(_, t int, _ *Scratch) {
		m := OID(0)
		for _, k := range key[chunks[t].Lo:chunks[t].Hi] {
			if k > m {
				m = k
			}
		}
		maxs[t] = m
	})
	maxKey := OID(0)
	for _, m := range maxs {
		if m > maxKey {
			maxKey = m
		}
	}
	bits := mem.Log2Ceil(int(maxKey) + 1)
	if bits == 0 {
		bits = 1
	}
	if bits > maxParallelBits {
		return e.clusterOIDPairsSerial(key, other, radix.SortOpts(key, h))
	}
	return e.ClusterOIDPairs(key, other, radix.Opts{Bits: bits})
}

// ClusterForDecluster performs the Figure-4 re-clustering on this
// engine's clustering operator.
func (e *Engine) ClusterForDecluster(smallerOIDs []OID, o radix.Opts) (*core.Clustered, error) {
	return core.ClusterForDeclusterWith(smallerOIDs, o, e.ClusterOIDPairs)
}

// prefixSumChunks turns per-chunk histograms (chunk-major: counts[k*h+c]
// is chunk k's count of cluster c) into disjoint insertion cursors,
// walking clusters outermost and chunks in input order so chunk k's
// slice of every cluster starts where chunk k-1's ends — the carving
// that makes chunked scatters reproduce the serial stable clustering.
// counts is rewritten in place to the cursors; the cluster start
// offsets go into the caller's (leased) h+1 offsets, which is returned.
func prefixSumChunks(offsets, counts []int, h, nch int) []int {
	pos := 0
	for c := 0; c < h; c++ {
		offsets[c] = pos
		for k := 0; k < nch; k++ {
			counts[k*h+c], pos = pos, pos+counts[k*h+c]
		}
	}
	offsets[h] = pos
	return offsets
}

// prefixSumChunksParallel is prefixSumChunks decomposed for the runtime —
// the last serial residue of the scatter planning. The (cluster,
// chunk) sum is associative per cluster, so it splits into three
// passes: per-cluster totals (clusters are disjoint columns of
// counts — chunked morsels), a serial exclusive prefix sum over the
// h cluster totals (h ≤ 2^maxFirstPassBits, negligible), and a
// parallel rewrite of each cluster column into its insertion cursors.
// The arithmetic is identical to the serial walk, so the cursors —
// and therefore the scatter output bytes — are identical too. The
// offsets are leased like the counts they index.
func (e *Engine) prefixSumChunksParallel(counts []int, h, nch int) []int {
	offsets := mempool.Slice[int](e.mem(), h+1)
	if e.serial(h * nch) {
		return prefixSumChunks(offsets, counts, h, nch)
	}
	totals := mempool.Slice[int](e.mem(), h)
	cchunks := e.chunksFor(h)
	e.run(len(cchunks), func(_, t int, _ *Scratch) {
		for c := cchunks[t].Lo; c < cchunks[t].Hi; c++ {
			s := 0
			for k := 0; k < nch; k++ {
				s += counts[k*h+c]
			}
			totals[c] = s
		}
	})
	pos := 0
	for c := 0; c < h; c++ {
		offsets[c] = pos
		pos += totals[c]
	}
	offsets[h] = pos
	e.run(len(cchunks), func(_, t int, _ *Scratch) {
		for c := cchunks[t].Lo; c < cchunks[t].Hi; c++ {
			cur := offsets[c]
			for k := 0; k < nch; k++ {
				counts[k*h+c], cur = cur, cur+counts[k*h+c]
			}
		}
	})
	return offsets
}

// level1Shift returns how many low radix bits scatter2 refines in a
// second level for a B-bit fan-out: final partition pt descends from
// level-1 partition pt >> level1Shift(B). Partition-morsel jobs over
// the final fan-out use it as their affinity key, so a partition is
// probed on the worker that just refined (and therefore still caches)
// its level-1 parent.
func level1Shift(bits int) uint {
	if bits > maxFirstPassBits {
		return uint(bits - maxFirstPassBits)
	}
	return 0
}

// scatterable reports whether scatter2 serves a B-bit fan-out: B = 0 is
// an identity copy, and beyond the two-level scheme the serial
// multi-pass engine takes over.
func scatterable(bits int) bool { return bits > 0 && bits <= maxParallelBits }

// scatter2 runs the two-level parallel clustering of n tuples through
// a bound kernel pair (radix.PairKernels / BUNKernels / RowKernels):
// pass 0 is the chunked count-then-scatter over the top level-1 bits,
// one kernel call per morsel; pass 1, when bits remain, clusters every
// level-1 partition on the low bits as one chunk. It returns the final
// 2^Bits+1 cluster offsets.
func (e *Engine) scatter2(n int, o radix.Opts, count, scatter radix.ChunkFn) []int {
	b1 := min(o.Bits, maxFirstPassBits)
	rem := o.Bits - b1
	h1 := 1 << b1
	f1 := radix.Field{Shift: uint(o.Ignore + rem), Mask: uint32(h1 - 1)}
	chunks := e.chunksFor(n)
	nch := len(chunks)

	// Pass 0, count: per-chunk histograms (each task owns one row of
	// counts). Leased buffers arrive dirty, so each task zeroes its row.
	counts := mempool.Slice[int](e.mem(), nch*h1)
	e.run(nch, func(_, t int, _ *Scratch) {
		row := counts[t*h1 : (t+1)*h1]
		clear(row)
		count(0, chunks[t].Lo, chunks[t].Hi, f1, row)
	})

	// Prefix sum (chunked parallel beyond the fallback threshold):
	// counts becomes the per-(chunk, cluster) insertion cursors, off1
	// the level-1 cluster starts.
	off1 := e.prefixSumChunksParallel(counts, h1, nch)

	// Pass 0, scatter. Chunk cursors are disjoint by construction, so
	// workers write to disjoint output positions.
	e.run(nch, func(_, t int, _ *Scratch) {
		scatter(0, chunks[t].Lo, chunks[t].Hi, f1, counts[t*h1:(t+1)*h1])
	})
	if rem == 0 {
		return off1
	}

	// Pass 1: cluster each level-1 partition on the remaining low bits.
	// Partitions are disjoint output ranges — independent morsels.
	h2 := 1 << rem
	f2 := radix.Field{Shift: uint(o.Ignore), Mask: uint32(h2 - 1)}
	offsets := mempool.Slice[int](e.mem(), h1*h2+1)
	offsets[h1*h2] = n
	e.run(h1, func(_, c int, s *Scratch) {
		lo, hi := off1[c], off1[c+1]
		row := s.Ints(h2)
		count(1, lo, hi, f2, row)
		pos := lo
		for j, cnt := range row {
			offsets[c*h2+j], row[j] = pos, pos
			pos += cnt
		}
		scatter(1, lo, hi, f2, row)
	})
	return offsets
}
