package radix

// This file holds the serial multi-pass engine behind the
// ClusterBUNsInto / ClusterOIDPairsInto / ClusterRowsInto front ends: the chunk
// kernels of kernel.go with one chunk per current cluster range.
//
// Each pass p consumes the next Bp most-significant bits of the radix
// field (bits [Ignore, Ignore+Bits) of the clustering value) and
// scatters every current range into 2^Bp sub-ranges. The first pass
// reads the caller's slices where they lie; later passes ping-pong
// between two buffers. Passes scan their input strictly sequentially
// and append to each output cluster in input order, which is what
// preserves intra-cluster ordering — property (2) that Radix-Decluster
// depends on (§3.2).

// ChunkFn applies one chunk kernel to tuples [lo,hi) of pass p's
// input, with the pass's radix bits and the chunk's histogram or
// cursor row. Pass p reads what pass p-1 wrote (pass 0 the caller's
// columns); PairKernels, BUNKernels and RowKernels bind where that is,
// and what the clustering value is — the drivers only schedule bits.
type ChunkFn func(p, lo, hi int, f Field, row []int)

// PairKernels binds the chunk kernels to an [oid, oid] BAT and the two
// buffers its passes ping-pong between: pass p scatters into buf[p&1],
// so pass 0 reads the caller's slices where they lie, a single-pass
// clustering needs only buf[0], and the result is the last pass's
// buffer. The clustering value is the key's own bits (§3.1). Both
// engines drive their pass schedule through the returned pair.
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

// runPasses drives the serial pass schedule of o over n tuples — one
// chunk per current cluster range — and returns the 2^Bits+1 cluster
// offsets.
func runPasses(n int, o Opts, count, scatter ChunkFn) []int {
	passes := o.passes()
	maxBits := 0
	for _, bp := range passes {
		maxBits = max(maxBits, bp)
	}
	// One histogram/cursor row serves every range of every pass.
	scratch := make([]int, 1<<maxBits)
	bounds := []int{0, n}
	used := 0
	for p, bp := range passes {
		used += bp
		f := Field{Shift: uint(o.Ignore + o.Bits - used), Mask: uint32(1<<bp - 1)}
		row := scratch[:1<<bp]
		next := make([]int, 0, (len(bounds)-1)<<bp+1)
		for k := 0; k+1 < len(bounds); k++ {
			lo, hi := bounds[k], bounds[k+1]
			clear(row)
			count(p, lo, hi, f, row)
			// Prefix-sum the histogram into insertion cursors.
			pos := lo
			for c, cnt := range row {
				next = append(next, pos)
				row[c] = pos
				pos += cnt
			}
			scatter(p, lo, hi, f, row)
		}
		bounds = append(next, n)
	}
	return bounds
}

// clusterPairs clusters a [key, payload] BAT on the radix field of its
// keys' own bits into the caller's ping-pong buffers and returns the
// clustered columns — the inputs are only read — plus the cluster
// offsets.
func clusterPairs[K, P Word](bufK [2][]K, bufP [2][]P, keys []K, pay []P, o Opts) ([]K, []P, []int) {
	n := len(keys)
	np := o.NumPasses()
	bufK, bufP = [2][]K{bufK[0][:n], bufK[1]}, [2][]P{bufP[0][:n], bufP[1]}
	if np == 0 || n == 0 {
		copy(bufK[0], keys)
		copy(bufP[0], pay)
		return bufK[0], bufP[0], trivialOffsets(n, o.Bits)
	}
	if np > 1 {
		bufK[1], bufP[1] = bufK[1][:n], bufP[1][:n]
	}
	count, scatter := PairKernels(keys, pay, bufK, bufP)
	return bufK[(np-1)&1], bufP[(np-1)&1], runPasses(n, o, count, scatter)
}

// clusterBUNs clusters a join input on the hash of its keys into the
// caller's ping-pong buffers: the clustered tuples come back as one
// BUN array.
func clusterBUNs[K, P Word](buf [2][]uint64, keys []K, oids []P, o Opts) ([]uint64, []int) {
	n := len(keys)
	np := o.NumPasses()
	buf[0] = buf[0][:n]
	if np == 0 || n == 0 {
		// One cluster: hash and pack in input order.
		ScatterPack(keys, oids, Field{}, []int{0}, buf[0])
		return buf[0], trivialOffsets(n, o.Bits)
	}
	if np > 1 {
		buf[1] = buf[1][:n]
	}
	count, scatter := BUNKernels(keys, oids, buf)
	return buf[(np-1)&1], runPasses(n, o, count, scatter)
}

// clusterRows clusters row-major width-wide records on the hash of
// their key column into the caller's ping-pong buffers. rows is not
// modified.
func clusterRows(buf [2][]int32, rows []int32, width, keyCol int, o Opts) ([]int32, []int) {
	n := len(rows) / width
	np := o.NumPasses()
	buf[0] = buf[0][:len(rows)]
	if np == 0 || n == 0 {
		copy(buf[0], rows)
		return buf[0], trivialOffsets(n, o.Bits)
	}
	if np > 1 {
		buf[1] = buf[1][:len(rows)]
	}
	count, scatter := RowKernels(rows, width, keyCol, buf)
	return buf[(np-1)&1], runPasses(n, o, count, scatter)
}

// trivialOffsets covers [0,n) with 2^bits clusters where all tuples
// land in cluster 0 — the B=0 degenerate case.
func trivialOffsets(n, bits int) []int {
	offsets := make([]int, 1<<bits+1)
	for c := 1; c < len(offsets); c++ {
		offsets[c] = n
	}
	return offsets
}
