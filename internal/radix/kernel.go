package radix

// The count/scatter chunk kernels every Radix-Cluster in this
// repository is built from. One clustering pass over any contiguous
// chunk of tuples is
//
//	clear(row); Histogram(chunk, hashed, f, row) // count: tuples per cluster
//	row → insertion cursors                      // a prefix sum, the caller's
//	Scatter(chunk, hashed, f, row, dst)          // stable move through the cursors
//
// The serial engine (cluster.go) runs it with one chunk per current
// cluster range; the parallel engine (internal/exec) with one chunk
// per morsel and cursors from the (cluster, chunk) prefix sum, which
// hands chunk k of a cluster the slice right after chunk k-1's. Either
// way a cluster receives its tuples in input order — the stability
// Radix-Decluster depends on (§3.2) — so the two engines, and any two
// chunkings, produce the same bytes.
//
// The kernels are typed tight loops over the caller's own slices: no
// per-tuple call, no allocation, no staging copy. The clustering value
// is derived from the key inside the loop (its own bits, or its hash),
// so no radix column is materialised or carried between passes.
//
// A join input travels as BUNs (§2.2): one uint64 per tuple holding key
// and oid (BUN, BUNKey, BUNOID), so a clustering pass keeps
// one write stream per cluster and a hash-table probe finds the key it
// compares and the oid it emits in one load. ScatterPack packs the
// caller's two columns during the first pass; join.ProbeBUNs unpacks.
// [oid, oid] clusterings stay columnar: their consumers (Positional-
// Joins, Radix-Decluster) each read one of the two columns end to end.

import "radixdecluster/internal/hash"

// Word is a 32-bit column element: values are int32, oids uint32.
type Word interface{ ~int32 | ~uint32 }

// Field is the radix field of one clustering pass: Mask+1 (a power of
// two) clusters on the bits of the clustering value above Shift.
type Field struct {
	Shift uint
	Mask  uint32
}

// Histogram is the count kernel: it adds the chunk's tuples per
// cluster to row, which holds one counter per cluster. The clustering
// value of a key is its own bits — dense oids, §3.1 — or, when hashed,
// hash.Int32 of it — join attributes, §2.2.
func Histogram[K Word](keys []K, hashed bool, f Field, row []int) {
	sh, mask := f.Shift, f.Mask
	if hashed {
		for _, k := range keys {
			row[(hash.Mix(uint32(k))>>sh)&mask]++
		}
		return
	}
	for _, k := range keys {
		row[(uint32(k)>>sh)&mask]++
	}
}

// Scatter moves the chunk's [key, payload] tuples into dstK/dstP in
// input order: a tuple of cluster c lands at cur[c], which advances.
func Scatter[K, P Word](keys []K, pay []P, hashed bool, f Field, cur []int, dstK []K, dstP []P) {
	sh, mask := f.Shift, f.Mask
	pay = pay[:len(keys)]
	if hashed {
		for i, k := range keys {
			c := (hash.Mix(uint32(k)) >> sh) & mask
			d := cur[c]
			cur[c] = d + 1
			dstK[d], dstP[d] = k, pay[i]
		}
		return
	}
	for i, k := range keys {
		c := (uint32(k) >> sh) & mask
		d := cur[c]
		cur[c] = d + 1
		dstK[d], dstP[d] = k, pay[i]
	}
}

// BUN packs a [key, oid] tuple: key in the high half, oid in the low.
func BUN(key, oid uint32) uint64 { return uint64(key)<<32 | uint64(oid) }

// BUNKey returns the key half of a BUN.
func BUNKey(b uint64) uint32 { return uint32(b >> 32) }

// BUNOID returns the oid half of a BUN.
func BUNOID(b uint64) uint32 { return uint32(b) }

// ScatterPack is Scatter for a join input: the [key, oid] tuples leave
// as BUNs.
func ScatterPack[K, P Word](keys []K, oids []P, hashed bool, f Field, cur []int, dst []uint64) {
	sh, mask := f.Shift, f.Mask
	oids = oids[:len(keys)]
	if hashed {
		for i, k := range keys {
			c := (hash.Mix(uint32(k)) >> sh) & mask
			d := cur[c]
			cur[c] = d + 1
			dst[d] = BUN(uint32(k), uint32(oids[i]))
		}
		return
	}
	for i, k := range keys {
		c := (uint32(k) >> sh) & mask
		d := cur[c]
		cur[c] = d + 1
		dst[d] = BUN(uint32(k), uint32(oids[i]))
	}
}

// ScatterPayload is Scatter for a column that follows a hashed key
// clustering without its keys: pay[i] lands at cur[cluster of
// hash.Int32(keys[i])], which advances.
func ScatterPayload[P Word](keys []int32, pay []P, f Field, cur []int, dst []P) {
	sh, mask := f.Shift, f.Mask
	pay = pay[:len(keys)]
	for i, k := range keys {
		c := (hash.Mix(uint32(k)) >> sh) & mask
		d := cur[c]
		cur[c] = d + 1
		dst[d] = pay[i]
	}
}

// HistogramBUN is Histogram over the keys of BUNs.
func HistogramBUN(buns []uint64, hashed bool, f Field, row []int) {
	sh, mask := f.Shift, f.Mask
	if hashed {
		for _, b := range buns {
			row[(hash.Mix(BUNKey(b))>>sh)&mask]++
		}
		return
	}
	for _, b := range buns {
		row[(BUNKey(b)>>sh)&mask]++
	}
}

// ScatterBUN is Scatter for the BUNs HistogramBUN counted: the later
// passes of a join-input clustering.
func ScatterBUN(buns []uint64, hashed bool, f Field, cur []int, dst []uint64) {
	sh, mask := f.Shift, f.Mask
	if hashed {
		for _, b := range buns {
			c := (hash.Mix(BUNKey(b)) >> sh) & mask
			d := cur[c]
			cur[c] = d + 1
			dst[d] = b
		}
		return
	}
	for _, b := range buns {
		c := (BUNKey(b) >> sh) & mask
		d := cur[c]
		cur[c] = d + 1
		dst[d] = b
	}
}

// HistogramRows is Histogram over row-major width-wide records whose
// clustering value is hash.Int32(record[keyCol]) — record keys are
// always join attributes.
func HistogramRows(rows []int32, width, keyCol int, f Field, row []int) {
	sh, mask := f.Shift, f.Mask
	for i := keyCol; i < len(rows); i += width {
		row[(hash.Int32(rows[i])>>sh)&mask]++
	}
}

// ScatterRows is Scatter for the records HistogramRows counted: whole
// records move, positions in cur and dst count records.
func ScatterRows(rows []int32, width, keyCol int, f Field, cur []int, dst []int32) {
	sh, mask := f.Shift, f.Mask
	for i := 0; i+width <= len(rows); i += width {
		c := (hash.Int32(rows[i+keyCol]) >> sh) & mask
		d := cur[c]
		cur[c] = d + 1
		copy(dst[d*width:(d+1)*width], rows[i:i+width])
	}
}
