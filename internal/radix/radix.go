// Package radix implements the Radix-Cluster family of algorithms
// from Boncz, Manegold and Kersten [BMK99], extended with the partial
// ("ignore bits") clustering of the paper's §3.1.
//
// radix_cluster(B,P) partitions a relation into H = 2^B clusters on B
// bits of the (hashed) clustering attribute, using P sequential
// passes starting from the most significant of those bits. Multiple
// passes bound the number of output cursors alive at once: a pass
// creating 2^Bp clusters keeps 2^Bp insertion points hot, and once
// that exceeds the number of cache lines (or TLB entries) the
// partitioning itself starts thrashing — the scalability problem
// multi-pass clustering solves (§2.2).
//
// Partial clustering adds an Ignore count I: the radix field is bits
// [I, I+B) of the clustering value. For dense oid columns this leaves
// the lowermost I bits unsorted — "partially ordered" — which is all
// a clustered Positional-Join needs, at a fraction of a full
// Radix-Sort's cost (§3.1). A Radix-Cluster on all significant bits
// of an oid column (I=0, B=⌈log2 N⌉) *is* Radix-Sort.
package radix

import (
	"fmt"
	"slices"

	"radixdecluster/internal/bat"
	"radixdecluster/internal/mem"
)

// OID mirrors bat.OID.
type OID = bat.OID

// Opts selects the radix field and pass structure of a clustering.
type Opts struct {
	// Bits is B: the total number of radix bits; H = 2^Bits clusters.
	Bits int
	// Ignore is I: how many low bits of the clustering value to skip.
	// The radix field is bits [Ignore, Ignore+Bits).
	Ignore int
	// Passes lists Bp per pass, most-significant first; the sum must
	// equal Bits. Leave nil for a single pass of all Bits.
	Passes []int
}

// NumPasses is how many passes the clustering takes: 0 for B = 0 (a
// copy), 1 for a single pass, len(Passes) otherwise. The ...Into forms
// need a second buffer when it exceeds one.
func (o Opts) NumPasses() int { return len(o.passes()) }

func (o Opts) passes() []int {
	if o.Passes == nil {
		if o.Bits == 0 {
			return nil
		}
		return []int{o.Bits}
	}
	return o.Passes
}

// Validate reports malformed options.
func (o Opts) Validate() error {
	if o.Bits < 0 || o.Ignore < 0 {
		return fmt.Errorf("radix: negative Bits (%d) or Ignore (%d)", o.Bits, o.Ignore)
	}
	if o.Bits+o.Ignore > 32 {
		return fmt.Errorf("radix: Bits+Ignore = %d exceeds 32-bit values", o.Bits+o.Ignore)
	}
	if o.Passes != nil {
		sum := 0
		for i, b := range o.Passes {
			if b <= 0 {
				return fmt.Errorf("radix: pass %d uses %d bits; each pass needs at least 1", i, b)
			}
			sum += b
		}
		if sum != o.Bits {
			return fmt.Errorf("radix: passes sum to %d bits, want %d", sum, o.Bits)
		}
	}
	return nil
}

// SplitBits divides B bits over the minimum number of passes that use
// at most maxPerPass bits each, balancing the load (e.g. 10 bits with
// max 8 becomes [5 5], not [8 2]); balanced passes keep the larger
// cursor count as small as possible.
func SplitBits(b, maxPerPass int) []int {
	if b <= 0 {
		return nil
	}
	if maxPerPass < 1 {
		maxPerPass = 1
	}
	p := (b + maxPerPass - 1) / maxPerPass
	out := make([]int, p)
	for i := range out {
		out[i] = b / p
		if i < b%p {
			out[i]++
		}
	}
	return out
}

// MaxBitsPerPass returns the largest per-pass fanout that keeps one
// output cursor per cache line of the innermost cache and one per TLB
// entry — the constraint that makes single-pass clustering stop
// scaling (§2.1, §2.2).
func MaxBitsPerPass(h mem.Hierarchy) int {
	limit := 1 << 30
	if caches := h.Caches(); len(caches) > 0 {
		if l := caches[0].Lines(); l < limit {
			limit = l
		}
	}
	if tlb, ok := h.TLB(); ok {
		if e := tlb.Lines(); e < limit {
			limit = e
		}
	}
	return mem.Log2Floor(limit)
}

// BUNsResult is a radix-clustered [oid,value] BAT — a join input — as
// packed BUNs (kernel.go) plus its H+1 cluster offsets.
type BUNsResult struct {
	BUNs    []uint64
	Offsets []int
}

// ClusterBUNsInto radix-clusters an [oid,value] BAT — a join input —
// on hash.Int32(value), so that skewed domains still spread over all
// clusters (§2.2). The BUNs carry the hash in place of the value
// (kernel.go): hash.Mix is a bijection, so the join compares hashes.
// It scatters into the caller's buffers, handed in dirty: buf[0] of at
// least len(vals) BUNs, and buf[1] too when o takes more than one pass
// (NumPasses) — the passes ping-pong between them. The result's BUNs
// are a prefix of one of the two; the other holds nothing the result
// needs.
func ClusterBUNsInto(buf [2][]uint64, heads []OID, vals []int32, o Opts) (*BUNsResult, error) {
	if len(heads) != len(vals) {
		return nil, fmt.Errorf("radix: ClusterBUNs: %d heads vs %d values", len(heads), len(vals))
	}
	if err := o.Validate(); err != nil {
		return nil, err
	}
	if err := checkBufs(buf, len(vals), o); err != nil {
		return nil, err
	}
	buns, offsets := clusterBUNs(buf, vals, heads, o)
	return &BUNsResult{BUNs: buns, Offsets: offsets}, nil
}

// pingPong makes the buffers a clustering of n tuples on o scatters
// through (see ClusterBUNsInto).
func pingPong[T any](n int, o Opts) [2][]T {
	buf := [2][]T{make([]T, n)}
	if o.NumPasses() > 1 {
		buf[1] = make([]T, n)
	}
	return buf
}

// checkBufs reports ping-pong buffers too short for n tuples on o.
func checkBufs[T any](buf [2][]T, n int, o Opts) error {
	if len(buf[0]) < n || (o.NumPasses() > 1 && len(buf[1]) < n) {
		return fmt.Errorf("radix: buffers of %d and %d for %d tuples in %d passes", len(buf[0]), len(buf[1]), n, o.NumPasses())
	}
	return nil
}

// KeyOffsets returns the 2^Bits+1 cluster offsets of a hashed
// Radix-Cluster of keys on o's radix field — the Offsets
// ClusterBUNsInto(_, _, keys, o) returns, whatever o's pass split.
func KeyOffsets(keys []int32, o Opts) ([]int, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	offsets := make([]int, 1<<o.Bits+1)
	Histogram(keys, true, keyField(o), offsets[1:])
	for c := 1; c < len(offsets); c++ {
		offsets[c] += offsets[c-1]
	}
	return offsets, nil
}

// PermuteInto writes col into dst[:len(keys)], which it returns, in the
// order ClusterBUNsInto(_, _, keys, o) puts the tuples of keys: one
// stable scatter pass on the whole radix field, with cursors from the
// clustering's offsets (KeyOffsets). A stable clustering places every
// tuple where any pass split would, so PermuteInto(_, keys, oids, …) is
// the BUNs' oid half — and any column of the relation follows without
// the permutation ever being stored. Every slot is written: a caller
// permuting several columns in turn reuses one buffer.
func PermuteInto[P Word](dst []P, keys []int32, col []P, o Opts, offsets []int) []P {
	cur := slices.Clone(offsets[:len(offsets)-1])
	dst = dst[:len(keys)]
	ScatterPayload(keys, col, keyField(o), cur, dst)
	return dst
}

// PermuteHashes returns hash.Int32 of keys in PermuteInto's order: the
// BUNs' hash half, the join input of a clustering done once
// (join.Image).
func PermuteHashes(keys []int32, o Opts, offsets []int) []uint32 {
	cur := slices.Clone(offsets[:len(offsets)-1])
	dst := make([]uint32, len(keys))
	ScatterHashes(keys, keyField(o), cur, dst)
	return dst
}

// keyField is the single-pass field of o's whole radix field.
func keyField(o Opts) Field {
	return Field{Shift: uint(o.Ignore), Mask: uint32(1<<o.Bits - 1)}
}

// OIDPairsResult is a radix-clustered [oid,oid] BAT (e.g. a
// join-index) plus cluster offsets.
type OIDPairsResult struct {
	Key     []OID // the column the clustering was performed on
	Other   []OID
	Offsets []int
}

// Borders converts the offsets into bat.Border form.
func (r *OIDPairsResult) Borders() []bat.Border { return bat.BordersFromOffsets(r.Offsets) }

// ClusterOIDPairs radix-clusters an [oid,oid] BAT on the key column.
// oids come from dense domains and are not hashed (§3.1), so a full
// clustering on all significant bits equals Radix-Sort, and a partial
// one (Ignore > 0) yields the cache-sized disjoint ranges that
// clustered Positional-Joins need.
func ClusterOIDPairs(key, other []OID, o Opts) (*OIDPairsResult, error) {
	return ClusterOIDPairsInto(pingPong[OID](len(key), o), pingPong[OID](len(key), o), key, other, o)
}

// ClusterOIDPairsInto is ClusterOIDPairs scattering into the caller's
// buffers, one ping-pong pair per column (see ClusterBUNsInto): the
// result's columns are prefixes of one buffer of each pair.
func ClusterOIDPairsInto(bufK, bufO [2][]OID, key, other []OID, o Opts) (*OIDPairsResult, error) {
	if len(key) != len(other) {
		return nil, fmt.Errorf("radix: ClusterOIDPairs: %d keys vs %d others", len(key), len(other))
	}
	if err := o.Validate(); err != nil {
		return nil, err
	}
	if err := checkBufs(bufK, len(key), o); err != nil {
		return nil, err
	}
	if err := checkBufs(bufO, len(key), o); err != nil {
		return nil, err
	}
	outKey, outOther, offsets := clusterPairs(bufK, bufO, key, other, o)
	return &OIDPairsResult{Key: outKey, Other: outOther, Offsets: offsets}, nil
}

// RowsResult is a radix-clustered NSM fragment: row-major records of
// the given width, plus cluster offsets (in records).
type RowsResult struct {
	Rows    []int32
	Width   int
	Offsets []int
}

// ClusterRowsInto radix-clusters width-wide NSM records on
// hash(record[keyCol]), scattering into the caller's buffers of at
// least len(rows) values each (see ClusterBUNsInto). The whole record
// travels on every pass — the "extra luggage" of pre-projection
// strategies (§1.1): fewer tuples fit per cluster and per cache line,
// which is exactly the effect the paper measures.
func ClusterRowsInto(buf [2][]int32, rows []int32, width, keyCol int, o Opts) (*RowsResult, error) {
	if width <= 0 || len(rows)%width != 0 {
		return nil, fmt.Errorf("radix: ClusterRows: %d values is not a multiple of width %d", len(rows), width)
	}
	if keyCol < 0 || keyCol >= width {
		return nil, fmt.Errorf("radix: ClusterRows: key column %d out of range [0,%d)", keyCol, width)
	}
	if err := o.Validate(); err != nil {
		return nil, err
	}
	if err := checkBufs(buf, len(rows), o); err != nil {
		return nil, err
	}
	out, offsets := clusterRows(buf, rows, width, keyCol, o)
	return &RowsResult{Rows: out, Width: width, Offsets: offsets}, nil
}

// SortOIDPairs fully sorts an [oid,oid] BAT on the key column by
// radix-clustering on all significant bits (Radix-Sort, §3.1), using
// as many passes as the hierarchy's per-pass fanout limit demands.
func SortOIDPairs(key, other []OID, h mem.Hierarchy) (*OIDPairsResult, error) {
	return ClusterOIDPairs(key, other, SortOpts(key, h))
}

// SortOpts is the clustering SortOIDPairs runs over key: every
// significant bit of its largest oid (at least one), split into passes
// of at most MaxBitsPerPass(h) bits. ClusterOIDPairsInto with it is
// SortOIDPairs into the caller's buffers.
func SortOpts(key []OID, h mem.Hierarchy) Opts {
	maxKey := OID(0)
	for _, k := range key {
		if k > maxKey {
			maxKey = k
		}
	}
	bits := mem.Log2Ceil(int(maxKey) + 1)
	if bits == 0 {
		bits = 1
	}
	return Opts{Bits: bits, Passes: SplitBits(bits, MaxBitsPerPass(h))}
}

// OptimalBits computes the paper's §3.1 cluster-granularity formula
//
//	B = 1 + log2(|COLUMN|) − log2(C / width)
//
// the smallest B for which the span of one cluster in a source column
// of |COLUMN| width-byte values fits the cache C, so each clustered
// Positional-Join touches a cacheable region.
func OptimalBits(colLen, width, cacheBytes int) int {
	if colLen <= 0 || width <= 0 || cacheBytes <= 0 {
		return 0
	}
	perCluster := cacheBytes / width // tuples whose values fit the cache
	if perCluster < 1 {
		perCluster = 1
	}
	if colLen <= perCluster {
		return 0
	}
	b := 1 + mem.Log2Floor(colLen) - mem.Log2Floor(perCluster)
	if b < 0 {
		b = 0
	}
	return b
}

// IgnoreBits computes I = log2(|JOININDEX|) − B (§3.1): how many low
// oid bits Radix-Cluster may leave unsorted given B clustering bits.
func IgnoreBits(jiLen, bits int) int {
	i := mem.Log2Ceil(jiLen) - bits
	if i < 0 {
		return 0
	}
	return i
}
