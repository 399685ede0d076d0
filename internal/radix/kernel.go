package radix

// The count/scatter chunk kernels every Radix-Cluster in this
// repository is built from. One clustering pass over any contiguous
// chunk of tuples is
//
//	clear(row); Histogram(chunk, hashed, f, row) // count: tuples per cluster
//	row → insertion cursors                      // a prefix sum, the caller's
//	Scatter(chunk, f, row, dst)                  // stable move through the cursors
//
// The one pass driver (Cluster, cluster.go) runs it with one chunk per
// morsel of the first pass — cursors from the (cluster, chunk) prefix
// sum, which hands chunk k of a cluster the slice right after chunk
// k-1's — and with one chunk per current cluster range after it. Either
// way a cluster receives its tuples in input order — the stability
// Radix-Decluster depends on (§3.2) — so both engines, and any two
// chunkings, produce the same bytes.
//
// The kernels are typed tight loops over the caller's own slices: no
// per-tuple call, no allocation, no staging copy. The clustering value
// is derived inside the loop (a key's own bits, a key's hash, or the
// hash a BUN carries), so no radix column is materialised.
//
// A join input travels as BUNs (§2.2): one uint64 per tuple holding the
// hash of its key and its oid (BUN, BUNHash, BUNOID), so a clustering
// pass keeps one write stream per cluster and a hash-table probe finds
// the hash it compares and the oid it emits in one load. Keys are
// hashed in the first pass only — by its count and by ScatterPack,
// which packs the caller's two columns: hash.Mix is a bijection, so
// equal hashes mean equal keys, and every later pass and join.ProbeBUNs
// read the radix bits and compare straight from the hash half.
//
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
// input order: a tuple of cluster c lands at cur[c], which advances. The
// clustering value is the key's own bits: Scatter serves the [oid, oid]
// clusterings, whose keys are dense oids (§3.1).
func Scatter[K, P Word](keys []K, pay []P, f Field, cur []int, dstK []K, dstP []P) {
	sh, mask := f.Shift, f.Mask
	pay = pay[:len(keys)]
	for i, k := range keys {
		c := (uint32(k) >> sh) & mask
		d := cur[c]
		cur[c] = d + 1
		dstK[d], dstP[d] = k, pay[i]
	}
}

// BUN packs a join-input tuple: the hash of its key (hash.Int32) in the
// high half, its oid in the low.
func BUN(h, oid uint32) uint64 { return uint64(h)<<32 | uint64(oid) }

// BUNHash returns the hash half of a BUN.
func BUNHash(b uint64) uint32 { return uint32(b >> 32) }

// BUNOID returns the oid half of a BUN.
func BUNOID(b uint64) uint32 { return uint32(b) }

// ScatterPack is Scatter for a join input's first pass: it hashes each
// key once and moves the [hash, oid] tuples as BUNs.
func ScatterPack[K, P Word](keys []K, oids []P, f Field, cur []int, dst []uint64) {
	sh, mask := f.Shift, f.Mask
	oids = oids[:len(keys)]
	for i, k := range keys {
		h := hash.Mix(uint32(k))
		c := (h >> sh) & mask
		d := cur[c]
		cur[c] = d + 1
		dst[d] = BUN(h, uint32(oids[i]))
	}
}

// ScatterImage is Scatter for a join image: each tuple's clustering
// value — hash.Mix of its key when hashed, else the key itself, a hash
// an earlier pass computed — lands at cur[its cluster], which advances,
// in dstH unless dstH is nil (hashed only), and the tuple's value of
// every column cols[j] (read at lo+i for keys[i]: keys is the chunk,
// cols whole) lands at the same position of dsts[j]. It moves one
// output at a time — the hashes, then each column from the cursors the
// chunk started with — so each loop writes one stream per cluster
// however many columns there are; a column's loop derives the cluster
// again, which costs less than remembering it.
func ScatterImage[K Word](keys []K, hashed bool, cols [][]int32, lo int, f Field, cur []int, dstH []uint32, dsts [][]int32) {
	var start []int // the chunk's first cursors, when more than one output needs them
	if len(cols) > 1 || len(cols) == 1 && dstH != nil {
		var small [64]int // up to 64 clusters' cursors stay on the stack
		start = append(small[:0], cur...)
	}
	if dstH != nil {
		scatterHash(keys, hashed, f, cur, dstH)
	}
	for j, col := range cols {
		if j > 0 || dstH != nil {
			copy(cur, start)
		}
		scatterCol(keys, hashed, col[lo:lo+len(keys)], f, cur, dsts[j])
	}
}

// scatterHash is ScatterImage's loop over the clustering values.
func scatterHash[K Word](keys []K, hashed bool, f Field, cur []int, dst []uint32) {
	sh, mask := f.Shift, f.Mask
	if hashed {
		for _, k := range keys {
			h := hash.Mix(uint32(k))
			c := (h >> sh) & mask
			d := cur[c]
			cur[c] = d + 1
			dst[d] = h
		}
		return
	}
	for _, k := range keys {
		c := (uint32(k) >> sh) & mask
		d := cur[c]
		cur[c] = d + 1
		dst[d] = uint32(k)
	}
}

// scatterCol is ScatterImage's loop over one column.
func scatterCol[K Word](keys []K, hashed bool, src []int32, f Field, cur []int, dst []int32) {
	sh, mask := f.Shift, f.Mask
	src = src[:len(keys)]
	if hashed {
		for i, k := range keys {
			c := (hash.Mix(uint32(k)) >> sh) & mask
			d := cur[c]
			cur[c] = d + 1
			dst[d] = src[i]
		}
		return
	}
	for i, k := range keys {
		c := (uint32(k) >> sh) & mask
		d := cur[c]
		cur[c] = d + 1
		dst[d] = src[i]
	}
}

// HistogramBUN is Histogram over BUNs: the clustering value is the
// hash half, already computed.
func HistogramBUN(buns []uint64, f Field, row []int) {
	sh, mask := f.Shift, f.Mask
	for _, b := range buns {
		row[(BUNHash(b)>>sh)&mask]++
	}
}

// ScatterBUN is Scatter for the BUNs HistogramBUN counted: the later
// passes of a join-input clustering.
func ScatterBUN(buns []uint64, f Field, cur []int, dst []uint64) {
	sh, mask := f.Shift, f.Mask
	for _, b := range buns {
		c := (BUNHash(b) >> sh) & mask
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
