// Package join implements the join-index-producing equi-join
// algorithms of the paper: naive Hash-Join and the cache-conscious
// Partitioned Hash-Join of [SKN94] paired with Radix-Cluster
// (§2.1–2.2), plus the payload-carrying variants that the
// pre-projection strategies need.
//
// In the Hash-Join considered here the *outer* (larger) relation is
// scanned sequentially while a hash table built on the *inner*
// (smaller) relation is probed — inherently random access over the
// inner relation plus table. Partitioned Hash-Join first
// radix-clusters both relations so that every inner partition (plus
// its hash table) fits the cache, turning the random access
// cacheable (§2.1).
package join

import (
	"fmt"
	"math/bits"
	"slices"

	"radixdecluster/internal/bat"
	"radixdecluster/internal/hash"
	"radixdecluster/internal/mem"
	"radixdecluster/internal/radix"
)

// OID mirrors bat.OID.
type OID = bat.OID

// Index is a join-index [Val87]: matching [larger-oid, smaller-oid]
// pairs. After a (partitioned) hash join neither column is in
// ascending order — the starting point of the paper's projection
// problem (§3.1).
type Index struct {
	Larger  []OID
	Smaller []OID
	// Parts, set by the probes over join images, are the 2^B+1 offsets
	// of the partitions' match lists: partition p's matches are
	// [Parts[p], Parts[p+1]), so each side's positions there lie in its
	// image's partition p.
	Parts []int
}

// Len returns the number of matches (the join result cardinality).
func (ix *Index) Len() int { return len(ix.Larger) }

// table is the bucket-chained hash table of the naive HashJoin, over
// the whole smaller relation. Chains are stored as parallel arrays —
// no per-entry allocation — and the structure is three flat arrays
// plus the key and oid columns: the footprint that, once it exceeds
// the cache, makes every probe a miss (the partitioned join's table
// is ProbeBUNs').
type table struct {
	mask  uint32
	first []int32 // bucket head: index+1, 0 = empty
	next  []int32 // chain: index+1, 0 = end
	oids  []OID
	keys  []int32
}

func buildTable(oids []OID, keys []int32) *table {
	n := len(keys)
	t := &table{
		mask:  uint32(NumBuckets(n) - 1),
		first: make([]int32, NumBuckets(n)),
		next:  make([]int32, n),
		oids:  oids,
		keys:  keys,
	}
	for i := 0; i < n; i++ {
		b := hash.Int32(keys[i]) & t.mask
		t.next[i] = t.first[b]
		t.first[b] = int32(i) + 1
	}
	return t
}

func (t *table) probe(largerOIDs []OID, largerKeys []int32, out *Index) {
	for i, k := range largerKeys {
		for e := t.first[hash.Int32(k)&t.mask]; e != 0; e = t.next[e-1] {
			if t.keys[e-1] == k {
				out.Larger = append(out.Larger, largerOIDs[i])
				out.Smaller = append(out.Smaller, t.oids[e-1])
			}
		}
	}
}

// HashJoin is the naive (non-partitioned) join: build a hash table on
// the whole smaller relation, probe with the larger. When the smaller
// relation exceeds the cache, every probe is an uncachable random
// access — the baseline the cache-conscious algorithms beat.
func HashJoin(largerOIDs []OID, largerKeys []int32, smallerOIDs []OID, smallerKeys []int32) (*Index, error) {
	if err := CheckInputs(largerOIDs, largerKeys, smallerOIDs, smallerKeys); err != nil {
		return nil, err
	}
	out := &Index{
		Larger:  make([]OID, 0, len(largerKeys)),
		Smaller: make([]OID, 0, len(largerKeys)),
	}
	buildTable(smallerOIDs, smallerKeys).probe(largerOIDs, largerKeys, out)
	return out, nil
}

// CheckInputs is the one check of a join-index-producing join's
// inputs, serial or parallel: one key per oid on each side.
func CheckInputs(largerOIDs []OID, largerKeys []int32, smallerOIDs []OID, smallerKeys []int32) error {
	if len(largerOIDs) != len(largerKeys) || len(smallerOIDs) != len(smallerKeys) {
		return fmt.Errorf("join: oid/key column length mismatch")
	}
	return nil
}

// PartitionedPreclusteredInto runs the per-partition hash joins of the
// Partitioned Hash-Join (Figure 2) over inputs already radix-clustered,
// as BUNs, on matching bits — the isolated join phase of Figure 9b,
// where clustering cost is studied separately (Figure 9a): ProbeBUNs
// over every partition pair in order, building every partition's table
// in ts. It appends the join-index to out, whose spare capacity — the
// caller's buffers, one match per larger tuple for a key–foreign-key
// join — the probes write into. shift is the clustering's Ignore+Bits,
// the hash bits the partitioning consumed.
func PartitionedPreclusteredInto(out *Index, ts *TableScratch, larger, smaller *radix.BUNsResult, shift uint) error {
	if len(larger.Offsets) != len(smaller.Offsets) {
		return fmt.Errorf("join: partition counts differ: %d vs %d", len(larger.Offsets)-1, len(smaller.Offsets)-1)
	}
	for p := 0; p+1 < len(larger.Offsets); p++ {
		ll, lh := larger.Offsets[p], larger.Offsets[p+1]
		sl, sh := smaller.Offsets[p], smaller.Offsets[p+1]
		if ll == lh || sl == sh {
			continue
		}
		ProbeBUNs(smaller.BUNs[sl:sh], larger.BUNs[ll:lh], shift, out, ts)
	}
	return nil
}

// Image is a join input radix-clustered once, outside any query (a
// relation's join image): the hashes of its keys in clustered order —
// the hash halves of the BUNs radix.ClusterBUNsInto would produce — and the
// 2^B+1 cluster offsets (radix.KeyOffsets, radix.PermuteHashes). A match
// emits the tuple's image position, its index in Hashes: the holder of
// the image keeps whatever it projects in the same order and reads it
// there, so an image carries no oids. Distinct records that no two
// Hashes are equal (DistinctHashes) — hash.Mix is a bijection, so that
// the key column is a key: probed as the smaller side, a larger tuple
// matches it at most once, and ProbeImage probes it with ProbeFirst.
type Image struct {
	Hashes   []uint32
	Offsets  []int
	Distinct bool
}

// DistinctHashes reports whether no two of img's hashes are equal, the
// fact Image.Distinct records. Equal hashes share a partition, so it
// chains each partition into one ProbeHashes table (shift as the probe
// buckets) and looks for every hash in its bucket before adding it.
func DistinctHashes(img *Image, shift uint) bool {
	var ts TableScratch
	for p := 0; p+1 < len(img.Offsets); p++ {
		part := img.Hashes[img.Offsets[p]:img.Offsets[p+1]]
		first, next, mask := ts.table(len(part))
		for i, h := range part {
			b := (h >> shift) & mask
			for e := first[b]; e != 0; e = next[e-1] {
				if part[e-1] == h {
					return false
				}
			}
			next[i] = first[b]
			first[b] = int32(i) + 1
		}
	}
	return true
}

// PartitionedImagesInto is PartitionedPreclusteredInto over two images,
// appending to out, which starts empty: ProbeImage over every partition
// pair in order, writing out's Larger and Smaller capacity as
// PartitionedPreclusteredInto does and building every table in ts, and
// each partition's match offset appended to Parts (2^B+1 offsets).
// Mapped through the clustered oids, its join-index is
// PartitionedPreclusteredInto's over the same clustering.
func PartitionedImagesInto(out *Index, ts *TableScratch, larger, smaller *Image, shift uint) error {
	if len(larger.Offsets) != len(smaller.Offsets) {
		return fmt.Errorf("join: partition counts differ: %d vs %d", len(larger.Offsets)-1, len(smaller.Offsets)-1)
	}
	out.Parts = append(out.Parts[:0], 0)
	for p := 0; p+1 < len(larger.Offsets); p++ {
		ProbeImage(larger, smaller, p, shift, out, ts)
		out.Parts = append(out.Parts, out.Len())
	}
	return nil
}

// ProbeImage joins partition p of two images into out: ProbeHashes over
// the partition pair, emitting image positions — or, when the smaller
// image is Distinct, ProbeFirst into out's spare capacity compacted by
// CompactFirst, the same matches in the same order.
func ProbeImage(larger, smaller *Image, p int, shift uint, out *Index, ts *TableScratch) {
	ll, lh := larger.Offsets[p], larger.Offsets[p+1]
	sl, sh := smaller.Offsets[p], smaller.Offsets[p+1]
	if ll == lh || sl == sh {
		return
	}
	if !smaller.Distinct {
		ProbeHashes(smaller.Hashes[sl:sh], larger.Hashes[ll:lh], sl, ll, shift, out, ts)
		return
	}
	m, k := out.Len(), lh-ll
	out.Larger, out.Smaller = slices.Grow(out.Larger, k), slices.Grow(out.Smaller, k)
	slots := out.Smaller[m : m+k]
	ProbeFirst(smaller.Hashes[sl:sh], larger.Hashes[ll:lh], sl, shift, slots, ts)
	hits := CompactFirst(slots, out.Larger[m:m+k], ll)
	out.Larger, out.Smaller = out.Larger[:m+hits], out.Smaller[:m+hits]
}

// TableScratch holds the hash-table arrays of ProbeBUNs so that a
// worker probing many partitions in a row builds each table into the
// same memory. The zero value is ready; the arrays grow to the largest
// partition seen and never shrink.
type TableScratch struct {
	first []int32 // bucket head: index+1, 0 = empty
	next  []int32 // chain: index+1, 0 = end
}

// TableScratchOver is a TableScratch over the caller's arrays, handed
// in dirty: bucket heads of at least TableBuckets(n) entries and chain
// links of at least n serve every partition of up to n tuples without
// an allocation.
func TableScratchOver(first, next []int32) TableScratch {
	return TableScratch{first: first, next: next}
}

// TableBuckets is the bucket-head count of ProbeBUNs' table over n
// tuples.
func TableBuckets(n int) int { return bucketsPerTuple * NumBuckets(n) }

// table returns the bucket heads, cleared, and the chain links of a
// table over n tuples, and the bucket mask.
func (ts *TableScratch) table(n int) (first, next []int32, mask uint32) {
	nb := TableBuckets(n)
	if cap(ts.first) < nb {
		ts.first = make([]int32, nb)
	}
	if cap(ts.next) < n {
		ts.next = make([]int32, n)
	}
	first = ts.first[:nb]
	clear(first) // next is fully rewritten by the insertion loop
	return first, ts.next[:n], uint32(nb - 1)
}

// hashTable builds ProbeHashes' table over one partition of image hash
// columns: each hash chained at the head of its bucket, on the bits
// above shift.
func (ts *TableScratch) hashTable(smaller []uint32, shift uint) (first, next []int32, mask uint32) {
	first, next, mask = ts.table(len(smaller))
	for i, h := range smaller {
		b := (h >> shift) & mask
		next[i] = first[b]
		first[b] = int32(i) + 1
	}
	return first, next, mask
}

// ProbeBUNs is the per-partition kernel of the Partitioned Hash-Join,
// and the unit of work the parallel executor schedules as a morsel: it
// builds a bucket-chained hash table over one partition of the smaller
// relation and probes it with the matching larger partition, adding
// the matches to out in probe order. Both partitions are BUNs
// (radix.ClusterBUNsInto), so the hash a chain entry is bucketed and
// compared on and the oid it emits come from the one word the chain
// index points at. Nothing is hashed here: hash.Mix is a bijection, so
// two BUNs carry equal hashes exactly when their keys are equal.
//
// shift discards the low hash bits already consumed by the
// Radix-Cluster partitioning: inside a B-bit partition every key
// shares those B bits, so bucketing on them would collapse the table
// into a single chain (MonetDB buckets on the remaining bits for the
// same reason). Insertion is at the chain head, so duplicates of a
// smaller key match in reverse partition order. The bucket array is
// sparse (bucketsPerTuple) — most chains hold at most one entry, and
// the chain-exit branch goes the same way for almost every probe.
//
// Matches are written by index into out's spare capacity — the caller
// sizes it for one match per probe tuple, the key–foreign-key case —
// and only a partition with more matches than that grows out by
// append, onto a fresh array when out was carved from a shared one.
func ProbeBUNs(smaller, larger []uint64, shift uint, out *Index, ts *TableScratch) {
	first, next, mask := ts.table(len(smaller))
	for i, b := range smaller {
		h := (radix.BUNHash(b) >> shift) & mask
		next[i] = first[h]
		first[h] = int32(i) + 1
	}

	m := len(out.Larger)
	lim := min(cap(out.Larger), cap(out.Smaller))
	outL, outS := out.Larger[:lim], out.Smaller[:lim]
	for _, lb := range larger {
		h := radix.BUNHash(lb)
		for e := first[(h>>shift)&mask]; e != 0; e = next[e-1] {
			sb := smaller[e-1]
			if radix.BUNHash(sb) != h {
				continue
			}
			if m == len(outL) {
				outL, outS = grow(outL), grow(outS)
			}
			outL[m], outS[m] = radix.BUNOID(lb), radix.BUNOID(sb)
			m++
		}
	}
	out.Larger, out.Smaller = outL[:m], outS[:m]
}

// ProbeHashes is ProbeBUNs over one partition pair of image hash columns
// (Image.Hashes): the same table, probe order and chain order, emitting
// each match's positions — lbase+i for larger[i], sbase+j for smaller[j]
// — where ProbeBUNs emits the BUNs' oids.
func ProbeHashes(smaller, larger []uint32, sbase, lbase int, shift uint, out *Index, ts *TableScratch) {
	first, next, mask := ts.hashTable(smaller, shift)
	m := len(out.Larger)
	lim := min(cap(out.Larger), cap(out.Smaller))
	outL, outS := out.Larger[:lim], out.Smaller[:lim]
	sb := OID(sbase) - 1 // chain entries count from 1
	for i, h := range larger {
		for e := first[(h>>shift)&mask]; e != 0; e = next[e-1] {
			if smaller[e-1] != h {
				continue
			}
			if m == len(outL) {
				outL, outS = grow(outL), grow(outS)
			}
			outL[m], outS[m] = OID(lbase+i), sb+OID(e)
			m++
		}
	}
	out.Larger, out.Smaller = outL[:m], outS[:m]
}

// NoMatch is the slot ProbeFirst writes for a probe without a match: no
// image position, which is below the image's length, reaches it.
const NoMatch = ^OID(0)

// ProbeFirst is the first-match probe of one partition pair of image
// hash columns, for a smaller side that is Distinct: over ProbeHashes'
// table it writes into out[i] (len(larger) slots, handed in dirty) the
// image position sbase+j of the smaller hash larger[i] equals, or
// NoMatch, and returns how many probes matched. The larger positions
// are implicit — slot i belongs to larger[i] — so when every probe
// matched (hits == len(larger), a key-FK partition) out is the smaller
// half of ProbeHashes' join-index and the larger half is the
// partition's positions in order, which nothing writes; otherwise
// CompactFirst turns the slots into that join-index. Over a smaller
// side with a duplicate it keeps only each probe's first match in chain
// order, the duplicate inserted last.
func ProbeFirst(smaller, larger []uint32, sbase int, shift uint, out []OID, ts *TableScratch) (hits int) {
	// Masked, a shift of 32 buckets on all bits instead of none: another
	// table with the same matches, since build and probe share it.
	shift &= 31
	first, next, _ := ts.hashTable(smaller, shift)
	return probeFirst(first, next, smaller, larger, OID(sbase)-1, shift, out)
}

// probeFirst is ProbeFirst's loop. It stays out of line and holds
// nothing but the probe — no append, no growth branch, no larger
// position — so few of its values spill to the stack; shift&31 lets the
// compiler drop the over-shift guard of h>>shift, and the mask derived
// from len(first) the bounds check of the bucket heads.
//
//go:noinline
func probeFirst(first, next []int32, smaller, larger []uint32, sb OID, shift uint, out []OID) (hits int) {
	if len(first) == 0 { // never: TableBuckets is 4 at least
		return 0
	}
	shift &= 31
	mask := uint(len(first)) - 1 // a power of two buckets
	next, out = next[:len(smaller)], out[:len(larger)]
	for i, h := range larger {
		e := first[uint(h>>shift)&mask]
		for e != 0 && smaller[e-1] != h {
			e = next[e-1]
		}
		if e == 0 {
			out[i] = NoMatch
			continue
		}
		out[i] = sb + OID(e)
		hits++
	}
	return hits
}

// CompactFirst turns ProbeFirst's slots, those of the larger positions
// lbase, lbase+1, …, into ProbeHashes' join-index over the same
// partition pair, in place: the matched slots move to the front of
// slots, in order, and larger[j] gets the position of the j-th matching
// probe. It returns the match count; larger needs room for it.
func CompactFirst(slots, larger []OID, lbase int) int {
	m := 0
	for i, o := range slots {
		if o != NoMatch {
			larger[m], slots[m] = OID(lbase+i), o
			m++
		}
	}
	return m
}

// grow returns s at more than twice its length, reallocated when that
// exceeds its capacity. It stays out of line: only a partition with more
// matches than probes takes it, and inlined into the probe loops it
// spills their registers on every chain step.
//
//go:noinline
func grow(s []OID) []OID { return append(s, make([]OID, len(s)+1)...) }

// NumBuckets returns the bucket count a table over n tuples is sized
// from: the next power of two above n. The naive and row tables use it
// as is; callers providing build buffers (BuildRowsTable) size them
// with it.
func NumBuckets(n int) int {
	if n <= 0 {
		return 1
	}
	return 1 << bits.Len(uint(n))
}

// bucketsPerTuple is how many times NumBuckets ProbeBUNs spreads a
// partition over. Per-partition build + probe at 16 Ki tuples: 26.0 ms
// per 1 Mi probes at 1×, 19.2 at 2×, 15.6 at 4×, 14.6 at 8× — past 4×
// the emptier chains no longer pay for the larger array to clear.
const bucketsPerTuple = 4

// RowsResult is the output of a payload-carrying (pre-projection)
// join: row-major result records of Width = larger-payload-width +
// smaller-payload-width. The keys do not appear in the output — the
// query projects a1..aY, b1..bX only (§1.1). N is the match count: a
// query that projects nothing has zero-width records, and its result
// still has a cardinality.
type RowsResult struct {
	Rows  []int32
	Width int
	N     int
}

// Len returns the result cardinality.
func (r *RowsResult) Len() int { return r.N }

// RowTable hashes the smaller side's wide tuples on their key column.
// shift discards the hash bits consumed by the partitioning (see
// ProbeBUNs). Probing is read-only: the parallel executor builds one
// table over the smaller relation (BuildRowsTable) and probes chunks of
// the larger relation on any worker.
type RowTable struct {
	mask  uint32
	shift uint
	first []int32
	next  []int32
	rows  []int32
	width int
	key   int
}

func buildRowTable(rows []int32, width, key int, shift uint) *RowTable {
	n := len(rows) / width
	return linkRowTable(rows, width, key, shift, make([]int32, NumBuckets(n)), make([]int32, n))
}

// linkRowTable hashes the n = len(next) tuples of rows into the chains
// of the zeroed bucket heads first (NumBuckets(n) long): each tuple is
// pushed onto its bucket's chain in ascending order, so a chain lists
// its tuples last first — the order duplicate matches are emitted in.
func linkRowTable(rows []int32, width, key int, shift uint, first, next []int32) *RowTable {
	t := &RowTable{
		mask:  uint32(len(first) - 1),
		shift: shift,
		first: first,
		next:  next,
		rows:  rows,
		width: width,
		key:   key,
	}
	for i := range next {
		b := (hash.Int32(rows[i*width+key]) >> shift) & t.mask
		t.next[i] = t.first[b]
		t.first[b] = int32(i) + 1
	}
	return t
}

// ProbeRows joins larger wide tuples against the table, appending
// [larger-payload | smaller-payload] rows (key columns dropped) to out
// in probe order and returning the extended slice and the match count.
// Matches per probe follow chain order, so a chunked probe stitched in
// chunk order emits the rows of one probe of the whole larger relation.
// The tuple-at-a-time copying with run-time attribute lists is the
// very CPU overhead the paper attributes to pre-projection (§4.2).
func (t *RowTable) ProbeRows(larger []int32, lw, lkey int, out []int32) ([]int32, int) {
	n, matches := len(larger)/lw, 0
	for i := 0; i < n; i++ {
		rec := larger[i*lw : (i+1)*lw]
		k := rec[lkey]
		for e := t.first[(hash.Int32(k)>>t.shift)&t.mask]; e != 0; e = t.next[e-1] {
			s := int(e-1) * t.width
			if t.rows[s+t.key] != k {
				continue
			}
			matches++
			for c := 0; c < lw; c++ {
				if c != lkey {
					out = append(out, rec[c])
				}
			}
			srec := t.rows[s : s+t.width]
			for c := 0; c < t.width; c++ {
				if c != t.key {
					out = append(out, srec[c])
				}
			}
		}
	}
	return out, matches
}

// BuildRowsTable hashes width-wide smaller tuples on their key column;
// shift discards hash bits consumed by a radix partitioning (0 for the
// naive join). first and next are the caller's backing arrays for the
// bucket heads (capacity at least NumBuckets(n)) and the chain links
// (at least n), handed in dirty: the build clears the heads and writes
// every link.
func BuildRowsTable(rows []int32, width, key int, shift uint, first, next []int32) (*RowTable, error) {
	if err := CheckRows(rows, width, key); err != nil {
		return nil, err
	}
	n := len(rows) / width
	first = first[:NumBuckets(n)]
	clear(first)
	return linkRowTable(rows, width, key, shift, first, next[:n]), nil
}

// ProbeRowsPartition builds a hash table on one partition of the
// smaller wide tuples and probes it with the matching larger
// partition, appending result rows to out in probe order — the
// per-partition morsel of the parallel pre-projection joins.
func ProbeRowsPartition(smaller []int32, sw, skey int, larger []int32, lw, lkey int, shift uint, out []int32) ([]int32, int) {
	return buildRowTable(smaller, sw, skey, shift).ProbeRows(larger, lw, lkey, out)
}

// PartitionedRowsInto is the pre-projection Partitioned Hash-Join
// ("NSM-pre-phash" / "DSM-pre-phash") over wide-tuple inputs already
// radix-clustered on matching bits (radix.ClusterRowsInto; CheckRows
// is the caller's): every partition pair is hash-joined in order, the
// result rows appended to out — the caller's buffer, regrown by append
// only past its capacity. shift is the clustering's Ignore+Bits.
// Because the payload inflates the tuple width, fewer tuples fit per
// cluster, which is why pre-projection needs more radix bits (and
// sooner multiple passes) than post-projection at equal cardinality
// (§4.2).
func PartitionedRowsInto(out []int32, larger *radix.RowsResult, lkey int, smaller *radix.RowsResult, skey int, shift uint) *RowsResult {
	lw, sw := larger.Width, smaller.Width
	n := 0
	h := len(larger.Offsets) - 1
	for p := 0; p < h; p++ {
		ll, lh := larger.Offsets[p]*lw, larger.Offsets[p+1]*lw
		sl, sh := smaller.Offsets[p]*sw, smaller.Offsets[p+1]*sw
		if ll == lh || sl == sh {
			continue
		}
		t := buildRowTable(smaller.Rows[sl:sh], sw, skey, shift)
		var m int
		out, m = t.ProbeRows(larger.Rows[ll:lh], lw, lkey, out)
		n += m
	}
	return &RowsResult{Rows: out, Width: lw + sw - 2, N: n}
}

// CheckRows is the one check of a row-major join input, serial or
// parallel: whole records of width fields, and a key column inside
// them.
func CheckRows(rows []int32, width, key int) error {
	if width <= 0 || len(rows)%width != 0 {
		return fmt.Errorf("join: %d values is not a multiple of width %d", len(rows), width)
	}
	if key < 0 || key >= width {
		return fmt.Errorf("join: key column %d out of range [0,%d)", key, width)
	}
	return nil
}

// PlanBits returns the number of radix bits for a Partitioned
// Hash-Join so every smaller-side partition (values + hash table)
// fits the cache, sized by the paper's estimate of tuples *
// (tupleBytes + 8 bytes of table overhead) (§2.1). ProbeBUNs' real
// footprint is larger — per tuple 8 bytes of BUN, 4 of chain link and
// 16–32 of bucket heads (bucketsPerTuple × NumBuckets × 4 / n) — and
// the estimate is deliberately left alone: end to end the 1 Mi ⋈ 1 Mi
// query is flat over 6–10 bits with that table (56–63 ms against 56 ms
// at the 6 bits this picks), so the plans stay the paper's.
func PlanBits(smallerTuples, tupleBytes, cacheBytes int) int {
	perTuple := tupleBytes + 8
	fit := cacheBytes / perTuple
	if fit < 1 {
		fit = 1
	}
	if smallerTuples <= fit {
		return 0
	}
	b := 1 + mem.Log2Floor(smallerTuples) - mem.Log2Floor(fit)
	if b < 0 {
		b = 0
	}
	return b
}
