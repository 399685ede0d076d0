package radix

// This file holds the one Radix-Cluster pass driver, Cluster, and the
// kernel bindings it drives: the chunk kernels of kernel.go scheduled
// over a pass split and a task runner, both handed in as data.
//
// Each pass p consumes the next Bp most-significant bits of the radix
// field (bits [Ignore, Ignore+Bits) of the clustering value) and
// scatters every current cluster range into 2^Bp sub-ranges. The first
// pass reads the caller's slices where they lie; later passes ping-pong
// between two buffers. Every chunk is scanned strictly sequentially and
// appends to each output cluster in input order, which is what
// preserves intra-cluster ordering — property (2) that Radix-Decluster
// depends on (§3.2) — whatever the split, the chunking and the runner.

import "slices"

// ChunkFn applies one chunk kernel to tuples [lo,hi) of pass p's
// input, with the pass's radix bits and the chunk's histogram or
// cursor row. Pass p reads what pass p-1 wrote (pass 0 the caller's
// columns); PairKernels, BUNKernels, RowKernels and ImageKernels bind
// where that is,
// and what the clustering value is — the driver only schedules bits.
type ChunkFn func(p, lo, hi int, f Field, row []int)

// Runner runs tasks 0..ntasks-1 of one step of a clustering and
// returns once every one has run: in task order on the caller's
// goroutine, or concurrently on workers. items is the step's amount of
// work, so a runner may run small steps inline. Each call of body gets
// a dirty row of rowLen ints, private to it while it runs.
type Runner func(items, ntasks, rowLen int, body func(t int, row []int))

// inline is the Runner of the substrate's own clusterings: every task
// in order on the caller's goroutine, sharing one row.
func inline(_, ntasks, rowLen int, body func(t int, row []int)) {
	row := make([]int, rowLen)
	for t := range ntasks {
		body(t, row)
	}
}

// Cluster is the one Radix-Cluster pass driver. It clusters n tuples
// through count and scatter on the bits above ignore that passes lists
// — at least one pass, most significant first; one 0-bit pass is a
// stable copy — and writes the 2^Bits+1 cluster offsets into offsets.
//
// The first pass runs over nch contiguous chunks of the input (Chunk):
// a count task per chunk into its row of counts (nch rows of
// 2^passes[0] ints, handed in dirty), the (cluster, chunk) prefix sum
// (ChunkCursors), and a scatter task per chunk through its cursors.
// Every later pass runs inside one task per first-pass cluster, one
// chunk per current cluster range (refine), so a cluster's refinement
// stays with the task that holds it. Chunks are contiguous input ranges
// in order, so every cluster receives its tuples in input order: the
// bytes are the stable clustering's for any split, chunking and runner.
func Cluster(offsets, counts []int, n, ignore int, passes []int, nch int, run Runner, count, scatter ChunkFn) {
	low := 0 // the bits the later passes take
	for _, bp := range passes[1:] {
		low += bp
	}
	h := 1 << passes[0]
	f := Field{Shift: uint(ignore + low), Mask: uint32(h - 1)}
	offsets[h<<low] = n
	run(n, nch, 0, func(k int, _ []int) {
		row := counts[k*h : (k+1)*h]
		clear(row)
		lo, hi := Chunk(n, nch, k)
		count(0, lo, hi, f, row)
	})
	ChunkCursors(counts, h, nch, offsets, 1<<low, run)
	run(n, nch, 0, func(k int, _ []int) {
		lo, hi := Chunk(n, nch, k)
		scatter(0, lo, hi, f, counts[k*h:(k+1)*h])
	})
	if low == 0 {
		return
	}
	run(n, h, 1<<slices.Max(passes[1:]), func(c int, row []int) {
		refine(offsets[c<<low:(c+1)<<low+1], 1, passes, ignore, low, count, scatter, row)
	})
}

// ChunkCursors turns nch chunk histograms of h clusters — counts,
// chunk-major: counts[k*h+c] is chunk k's count of cluster c — into
// insertion cursors in place, walking clusters outermost and chunks in
// input order, so chunk k's slice of every cluster starts where chunk
// k-1's ends: the carving that makes chunked scatters reproduce the
// one-chunk stable clustering. Cluster c's start goes to
// offsets[c*stride]. The sum runs as nch tasks over cluster ranges —
// per-cluster totals, then the cursors — around a serial sum of the h
// totals.
func ChunkCursors(counts []int, h, nch int, offsets []int, stride int, run Runner) {
	run(h*nch, nch, 0, func(k int, _ []int) {
		clo, chi := Chunk(h, nch, k)
		for c := clo; c < chi; c++ {
			s := 0
			for j := 0; j < nch; j++ {
				s += counts[j*h+c]
			}
			offsets[c*stride] = s
		}
	})
	pos := 0
	for c := 0; c < h; c++ {
		offsets[c*stride], pos = pos, pos+offsets[c*stride]
	}
	run(h*nch, nch, 0, func(k int, _ []int) {
		clo, chi := Chunk(h, nch, k)
		for c := clo; c < chi; c++ {
			cur := offsets[c*stride]
			for j := 0; j < nch; j++ {
				counts[j*h+c], cur = cur, cur+counts[j*h+c]
			}
		}
	})
}

// refine runs passes[p:], which take low bits, over one cluster of pass
// p-1's output: tuples [offs[0], offs[len(offs)-1]), one chunk per
// current cluster range. It writes the starts of the cluster's 2^low
// sub-clusters into offs[1:len(offs)-1] — offs[0] and the last entry,
// the cluster's own bounds, are the caller's and only read. row is
// histogram scratch for the largest of the passes.
func refine(offs []int, p int, passes []int, ignore, low int, count, scatter ChunkFn, row []int) {
	lo, hi := offs[0], offs[len(offs)-1]
	if lo == hi {
		for i := 1; i < len(offs)-1; i++ {
			offs[i] = lo
		}
		return
	}
	low -= passes[p]
	h := 1 << passes[p]
	f := Field{Shift: uint(ignore + low), Mask: uint32(h - 1)}
	row = row[:h]
	clear(row)
	count(p, lo, hi, f, row)
	pos := lo
	for j, cnt := range row {
		if j > 0 {
			offs[j<<low] = pos
		}
		row[j] = pos
		pos += cnt
	}
	scatter(p, lo, hi, f, row)
	if low == 0 {
		return
	}
	for j := range h {
		refine(offs[j<<low:(j+1)<<low+1], p+1, passes, ignore, low, count, scatter, row)
	}
}

// Chunk is the k-th of nch contiguous near-equal ranges tiling [0, n):
// the first n%nch are one item longer. The tiling is a function of
// (n, nch) alone.
func Chunk(n, nch, k int) (lo, hi int) {
	base, rem := n/nch, n%nch
	lo = k*base + min(k, rem)
	hi = lo + base
	if k < rem {
		hi++
	}
	return lo, hi
}

// Result is the ping-pong buffer a clustering on passes leaves its
// tuples in: pass p scatters into buffer p&1.
func Result(passes []int) int { return (len(passes) - 1) & 1 }

// PairKernels binds the chunk kernels to an [oid, oid] BAT and the two
// buffers its passes ping-pong between: pass p scatters into buf[p&1],
// so pass 0 reads the caller's slices where they lie, a single-pass
// clustering needs only buf[0], and the result is the last pass's
// buffer. The clustering value is the key's own bits (§3.1).
func PairKernels[K, P Word](keys []K, pay []P, bufK [2][]K, bufP [2][]P) (count, scatter ChunkFn) {
	src := func(p int) ([]K, []P) {
		if p == 0 {
			return keys, pay
		}
		return bufK[(p-1)&1], bufP[(p-1)&1]
	}
	count = func(p, lo, hi int, f Field, row []int) {
		k, _ := src(p)
		Histogram(k[lo:hi], false, f, row)
	}
	scatter = func(p, lo, hi int, f Field, cur []int) {
		k, v := src(p)
		Scatter(k[lo:hi], v[lo:hi], f, cur, bufK[p&1], bufP[p&1])
	}
	return count, scatter
}

// BUNKernels is PairKernels for a join input, clustered on the hash of
// its keys (§2.2): pass 0 hashes the caller's keys and packs them with
// their oids into BUNs (kernel.go), later passes move BUNs on the hash
// they carry, so every pass writes one stream per cluster into buf[p&1].
func BUNKernels[K, P Word](keys []K, oids []P, buf [2][]uint64) (count, scatter ChunkFn) {
	count = func(p, lo, hi int, f Field, row []int) {
		if p == 0 {
			Histogram(keys[lo:hi], true, f, row)
			return
		}
		HistogramBUN(buf[(p-1)&1][lo:hi], f, row)
	}
	scatter = func(p, lo, hi int, f Field, cur []int) {
		if p == 0 {
			ScatterPack(keys[lo:hi], oids[lo:hi], f, cur, buf[0])
			return
		}
		ScatterBUN(buf[(p-1)&1][lo:hi], f, cur, buf[p&1])
	}
	return count, scatter
}

// RowKernels is PairKernels for row-major width-wide records clustered
// on the hash of their key column; lo, hi and the cursors count
// records.
func RowKernels(rows []int32, width, keyCol int, buf [2][]int32) (count, scatter ChunkFn) {
	src := func(p, lo, hi int) []int32 {
		if p == 0 {
			return rows[lo*width : hi*width]
		}
		return buf[(p-1)&1][lo*width : hi*width]
	}
	count = func(p, lo, hi int, f Field, row []int) {
		HistogramRows(src(p, lo, hi), width, keyCol, f, row)
	}
	scatter = func(p, lo, hi int, f Field, cur []int) {
		ScatterRows(src(p, lo, hi), width, keyCol, f, cur, buf[p&1])
	}
	return count, scatter
}

// ImageKernels binds the chunk kernels to a join image's build: the
// clustering value is the hash of keys (§2.2), and every pass moves the
// hashes and the columns cols together (ScatterImage), so one clustering
// writes the image's hashes and all its columns. Pass p scatters into
// hs[p&1] and bufs[j][p&1], each pair like PairKernels' buffers: the
// result is the last pass's buffers (Result). With hs[0] nil a
// single-pass clustering moves the columns alone — a column added to a
// built image, whose hashes the count and the scatter recompute from
// keys; a clustering of more passes needs hs, whose hashes carry the
// clustering value from pass to pass.
func ImageKernels(keys []int32, cols [][]int32, hs [2][]uint32, bufs [][2][]int32) (count, scatter ChunkFn) {
	var out [2][][]int32 // the columns pass p scatters into: out[p&1]
	for i := range out {
		out[i] = make([][]int32, len(bufs))
		for j, b := range bufs {
			out[i][j] = b[i]
		}
	}
	count = func(p, lo, hi int, f Field, row []int) {
		if p == 0 {
			Histogram(keys[lo:hi], true, f, row)
			return
		}
		Histogram(hs[(p-1)&1][lo:hi], false, f, row)
	}
	scatter = func(p, lo, hi int, f Field, cur []int) {
		if p == 0 {
			ScatterImage(keys[lo:hi], true, cols, lo, f, cur, hs[0], out[0])
			return
		}
		ScatterImage(hs[(p-1)&1][lo:hi], false, out[(p-1)&1], lo, f, cur, hs[p&1], out[p&1])
	}
	return count, scatter
}

// clusterInline runs Cluster over n tuples on o's own passes on the
// caller's goroutine, one chunk, into fresh offsets.
func clusterInline(n int, o Opts, count, scatter ChunkFn) []int {
	passes := o.Schedule()
	offsets := make([]int, 1<<o.Bits+1)
	Cluster(offsets, make([]int, 1<<passes[0]), n, o.Ignore, passes, 1, inline, count, scatter)
	return offsets
}

// clusterPairs clusters a [key, payload] BAT on the radix field of its
// keys' own bits into the caller's ping-pong buffers and returns the
// clustered columns — the inputs are only read — plus the cluster
// offsets.
func clusterPairs[K, P Word](bufK [2][]K, bufP [2][]P, keys []K, pay []P, o Opts) ([]K, []P, []int) {
	n := len(keys)
	bufK, bufP = [2][]K{bufK[0][:n], bufK[1]}, [2][]P{bufP[0][:n], bufP[1]}
	if o.NumPasses() > 1 {
		bufK[1], bufP[1] = bufK[1][:n], bufP[1][:n]
	}
	count, scatter := PairKernels(keys, pay, bufK, bufP)
	offsets := clusterInline(n, o, count, scatter)
	r := Result(o.Schedule())
	return bufK[r], bufP[r], offsets
}

// clusterBUNs clusters a join input on the hash of its keys into the
// caller's ping-pong buffers: the clustered tuples come back as one
// BUN array.
func clusterBUNs[K, P Word](buf [2][]uint64, keys []K, oids []P, o Opts) ([]uint64, []int) {
	n := len(keys)
	buf[0] = buf[0][:n]
	if o.NumPasses() > 1 {
		buf[1] = buf[1][:n]
	}
	count, scatter := BUNKernels(keys, oids, buf)
	offsets := clusterInline(n, o, count, scatter)
	return buf[Result(o.Schedule())], offsets
}
