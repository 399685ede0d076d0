package radix

import (
	"math/rand/v2"
	"slices"
	"testing"
	"testing/quick"

	"radixdecluster/internal/bat"
	"radixdecluster/internal/hash"
	"radixdecluster/internal/mem"
)

func TestOptsValidate(t *testing.T) {
	cases := []struct {
		o  Opts
		ok bool
	}{
		{Opts{Bits: 3}, true},
		{Opts{Bits: 3, Passes: []int{2, 1}}, true},
		{Opts{Bits: 3, Passes: []int{2, 2}}, false},
		{Opts{Bits: 3, Passes: []int{3, 0}}, false},
		{Opts{Bits: -1}, false},
		{Opts{Bits: 20, Ignore: 20}, false},
		{Opts{Bits: 16, Ignore: 16}, true},
		{Opts{Bits: 0}, true},
	}
	for i, c := range cases {
		if err := c.o.Validate(); (err == nil) != c.ok {
			t.Errorf("case %d: Validate(%+v) = %v, want ok=%v", i, c.o, err, c.ok)
		}
	}
}

func TestSplitBits(t *testing.T) {
	cases := []struct {
		b, max int
		want   []int
	}{
		{0, 8, nil},
		{3, 8, []int{3}},
		{10, 8, []int{5, 5}},
		{17, 8, []int{6, 6, 5}},
		{8, 8, []int{8}},
		{9, 8, []int{5, 4}},
		{4, 0, []int{1, 1, 1, 1}},
	}
	for _, c := range cases {
		got := SplitBits(c.b, c.max)
		if len(got) != len(c.want) {
			t.Errorf("SplitBits(%d,%d) = %v, want %v", c.b, c.max, got, c.want)
			continue
		}
		sum := 0
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("SplitBits(%d,%d) = %v, want %v", c.b, c.max, got, c.want)
			}
			sum += got[i]
		}
		if c.b > 0 && sum != c.b {
			t.Errorf("SplitBits(%d,%d) sums to %d", c.b, c.max, sum)
		}
	}
}

func TestMaxBitsPerPass(t *testing.T) {
	h := mem.Pentium4()
	// L1: 16KB/32B = 512 lines; TLB: 64 entries. TLB binds: 2^6 = 64.
	if got := MaxBitsPerPass(h); got != 6 {
		t.Fatalf("MaxBitsPerPass(Pentium4) = %d, want 6", got)
	}
}

// checkClusteredPairs verifies the three defining properties of a
// join-input clustering: (1) output is a multiset permutation of the
// input, each key carried as its hash; (2) every tuple lies in the
// cluster its hash's radix field names; (3) input order is preserved
// within each cluster.
func checkClusteredPairs(t *testing.T, heads []OID, vals []int32, bres *BUNsResult, o Opts) {
	t.Helper()
	n := len(heads)
	res := unpack(bres)
	if len(res.Heads) != n {
		t.Fatalf("clustered size %d, want %d", len(res.Heads), n)
	}
	borders := bat.BordersFromOffsets(res.Offsets)
	if err := bat.ValidateBorders(borders, n); err != nil {
		t.Fatalf("bad borders: %v", err)
	}
	// (2) membership.
	for c, b := range borders {
		for i := b.Start; i < b.End; i++ {
			if got := (res.Hashes[i] >> uint(o.Ignore)) & uint32(1<<o.Bits-1); got != uint32(c) {
				t.Fatalf("tuple %d in cluster %d has radix %d", i, c, got)
			}
		}
	}
	// (1) multiset equality via the head oids, which identify tuples
	// uniquely in these tests.
	seen := make(map[OID]uint32, n)
	for i, h := range heads {
		seen[h] = hash.Int32(vals[i])
	}
	for i, h := range res.Heads {
		v, ok := seen[h]
		if !ok || v != res.Hashes[i] {
			t.Fatalf("output tuple %d (%d,%#x) not in input", i, h, res.Hashes[i])
		}
		delete(seen, h)
	}
	if len(seen) != 0 {
		t.Fatalf("%d input tuples missing from output", len(seen))
	}
	// (3) stability: heads were assigned in input order, so within a
	// cluster they must appear in ascending input position.
	pos := make(map[OID]int, n)
	for i, h := range heads {
		pos[h] = i
	}
	for _, b := range borders {
		last := -1
		for i := b.Start; i < b.End; i++ {
			p := pos[res.Heads[i]]
			if p < last {
				t.Fatalf("cluster order violates input order at %d", i)
			}
			last = p
		}
	}
}

// unpacked is a BUNsResult split back into its two columns.
type unpacked struct {
	Heads   []OID
	Hashes  []uint32
	Offsets []int
}

func unpack(r *BUNsResult) unpacked {
	u := unpacked{Heads: make([]OID, len(r.BUNs)), Hashes: make([]uint32, len(r.BUNs)), Offsets: r.Offsets}
	for i, b := range r.BUNs {
		u.Heads[i], u.Hashes[i] = BUNOID(b), BUNHash(b)
	}
	return u
}

// hashes returns hash.Int32 of every key.
func hashes(keys []int32) []uint32 {
	out := make([]uint32, len(keys))
	for i, k := range keys {
		out[i] = hash.Int32(k)
	}
	return out
}

// freshBUNs is ClusterBUNsInto into fresh ping-pong buffers.
func freshBUNs(heads []OID, vals []int32, o Opts) (*BUNsResult, error) {
	return ClusterBUNsInto(pingPong[uint64](len(vals), o), heads, vals, o)
}

// freshRows is ClusterRowsInto into fresh ping-pong buffers.
func freshRows(rows []int32, width, keyCol int, o Opts) (*RowsResult, error) {
	return ClusterRowsInto(pingPong[int32](len(rows), o), rows, width, keyCol, o)
}

func randomPairs(n int, seed uint64) ([]OID, []int32) {
	rng := rand.New(rand.NewPCG(seed, 99))
	heads := make([]OID, n)
	vals := make([]int32, n)
	for i := range heads {
		heads[i] = OID(i)
		vals[i] = int32(rng.Uint32() % 10000)
	}
	return heads, vals
}

func TestClusterBUNsSinglePass(t *testing.T) {
	heads, vals := randomPairs(1000, 1)
	o := Opts{Bits: 4}
	res, err := freshBUNs(heads, vals, o)
	if err != nil {
		t.Fatal(err)
	}
	checkClusteredPairs(t, heads, vals, res, o)
}

func TestClusterBUNsMultiPassEqualsSinglePass(t *testing.T) {
	heads, vals := randomPairs(5000, 2)
	bsingle, err := freshBUNs(heads, vals, Opts{Bits: 6})
	if err != nil {
		t.Fatal(err)
	}
	single := unpack(bsingle)
	for _, passes := range [][]int{{3, 3}, {2, 2, 2}, {4, 1, 1}, {1, 5}} {
		bmulti, err := freshBUNs(heads, vals, Opts{Bits: 6, Passes: passes})
		if err != nil {
			t.Fatal(err)
		}
		multi := unpack(bmulti)
		// Multi-pass MSB-first radix clustering is stable, so the
		// result must be byte-identical to the single pass.
		for i := range single.Heads {
			if single.Heads[i] != multi.Heads[i] || single.Hashes[i] != multi.Hashes[i] {
				t.Fatalf("passes %v: tuple %d differs from single pass", passes, i)
			}
		}
		for i := range single.Offsets {
			if single.Offsets[i] != multi.Offsets[i] {
				t.Fatalf("passes %v: offsets differ at %d", passes, i)
			}
		}
	}
}

// TestPermuteMatchesClusterBUNs: a join image built column-wise —
// KeyOffsets, PermuteHashes and one PermuteInto per column — holds exactly
// the BUN clustering's offsets, hashes and oids, for every pass split,
// with Ignore bits, and at zero bits.
func TestPermuteMatchesClusterBUNs(t *testing.T) {
	heads, vals := randomPairs(5000, 5)
	for _, o := range []Opts{{Bits: 0}, {Bits: 6}, {Bits: 6, Passes: []int{2, 2, 2}}, {Bits: 5, Ignore: 3}, {Bits: 11, Passes: []int{6, 5}}} {
		bres, err := freshBUNs(heads, vals, o)
		if err != nil {
			t.Fatal(err)
		}
		want := unpack(bres)
		offs, err := KeyOffsets(vals, o)
		if err != nil {
			t.Fatal(err)
		}
		keys := PermuteInto(make([]int32, len(vals)), vals, vals, o, offs)
		oids := PermuteInto(make([]OID, len(vals)), vals, heads, o, offs)
		if !slices.Equal(offs, want.Offsets) || !slices.Equal(PermuteHashes(vals, o, offs), want.Hashes) ||
			!slices.Equal(hashes(keys), want.Hashes) || !slices.Equal(oids, want.Heads) {
			t.Fatalf("%+v: the column-wise image differs from ClusterBUNsInto", o)
		}
		// A reused, dirty, oversized buffer is written in full.
		dirty := slices.Repeat([]int32{-7}, len(vals)+3)
		if got := PermuteInto(dirty, vals, vals, o, offs); !slices.Equal(got, keys) {
			t.Fatalf("%+v: PermuteInto into a dirty buffer differs from a fresh one", o)
		}
	}
	if _, err := KeyOffsets(vals, Opts{Bits: -1}); err == nil {
		t.Fatal("KeyOffsets accepted malformed opts")
	}
}

func TestClusterBUNsZeroBits(t *testing.T) {
	heads, vals := randomPairs(64, 4)
	bres, err := freshBUNs(heads, vals, Opts{Bits: 0})
	if err != nil {
		t.Fatal(err)
	}
	res := unpack(bres)
	if len(res.Offsets) != 2 || res.Offsets[1] != 64 {
		t.Fatalf("offsets = %v", res.Offsets)
	}
	for i := range heads {
		if res.Heads[i] != heads[i] || res.Hashes[i] != hash.Int32(vals[i]) {
			t.Fatal("B=0 must preserve the input order and hash every key")
		}
	}
}

func TestClusterBUNsEmpty(t *testing.T) {
	res, err := freshBUNs(nil, nil, Opts{Bits: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := bat.ValidateBorders(bat.BordersFromOffsets(res.Offsets), 0); err != nil {
		t.Fatal(err)
	}
}

func TestClusterBUNsLengthMismatch(t *testing.T) {
	if _, err := freshBUNs([]OID{1}, []int32{1, 2}, Opts{Bits: 1}); err == nil {
		t.Fatal("length mismatch not rejected")
	}
}

func TestClusterOIDPairsIgnoreBits(t *testing.T) {
	// Figure 3's example: cluster a join-index on the high bit of
	// 3-bit oids, ignoring the lower two (B=1, I=2).
	key := []OID{5, 2, 4, 0, 1, 3}
	other := []OID{3, 0, 4, 7, 7, 3}
	res, err := ClusterOIDPairs(key, other, Opts{Bits: 1, Ignore: 2})
	if err != nil {
		t.Fatal(err)
	}
	wantKey := []OID{2, 0, 1, 3, 5, 4}
	wantOther := []OID{0, 7, 7, 3, 3, 4}
	for i := range wantKey {
		if res.Key[i] != wantKey[i] || res.Other[i] != wantOther[i] {
			t.Fatalf("got (%v,%v), want (%v,%v)", res.Key, res.Other, wantKey, wantOther)
		}
	}
	if res.Offsets[1] != 4 {
		t.Fatalf("cluster 0 should have 4 tuples, offsets=%v", res.Offsets)
	}
}

func TestSortOIDPairs(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 7))
	n := 4096
	key := make([]OID, n)
	other := make([]OID, n)
	for i := range key {
		key[i] = OID(i)
		other[i] = OID(i) * 3
	}
	rng.Shuffle(n, func(i, j int) {
		key[i], key[j] = key[j], key[i]
		other[i], other[j] = other[j], other[i]
	})
	res, err := SortOIDPairs(key, other, mem.Pentium4())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if res.Key[i] != OID(i) {
			t.Fatalf("key[%d] = %d, not sorted", i, res.Key[i])
		}
		if res.Other[i] != OID(i)*3 {
			t.Fatalf("other[%d] = %d: payload did not follow key", i, res.Other[i])
		}
	}
}

func TestSortOIDPairsDuplicatesStable(t *testing.T) {
	key := []OID{2, 0, 2, 1, 0}
	other := []OID{10, 20, 30, 40, 50}
	res, err := SortOIDPairs(key, other, mem.Small())
	if err != nil {
		t.Fatal(err)
	}
	wantKey := []OID{0, 0, 1, 2, 2}
	wantOther := []OID{20, 50, 40, 10, 30} // stable: input order within equal keys
	for i := range wantKey {
		if res.Key[i] != wantKey[i] || res.Other[i] != wantOther[i] {
			t.Fatalf("got (%v,%v), want (%v,%v)", res.Key, res.Other, wantKey, wantOther)
		}
	}
}

func TestClusterRows(t *testing.T) {
	const n, w = 300, 4
	rng := rand.New(rand.NewPCG(11, 0))
	rows := make([]int32, n*w)
	for i := 0; i < n; i++ {
		rows[i*w] = int32(rng.Uint32() % 1000) // key column 0
		for j := 1; j < w; j++ {
			rows[i*w+j] = int32(i) // row id in payload
		}
	}
	o := Opts{Bits: 3, Passes: []int{2, 1}}
	res, err := freshRows(rows, w, 0, o)
	if err != nil {
		t.Fatal(err)
	}
	borders := bat.BordersFromOffsets(res.Offsets)
	if err := bat.ValidateBorders(borders, n); err != nil {
		t.Fatal(err)
	}
	mask := uint32(1<<o.Bits - 1)
	for c, b := range borders {
		for i := b.Start; i < b.End; i++ {
			key := res.Rows[i*w]
			if got := hash.Int32(key) & mask; got != uint32(c) {
				t.Fatalf("row %d in cluster %d has radix %d", i, c, got)
			}
			// Row must be intact: payload carries the original row id.
			id := res.Rows[i*w+1]
			for j := 2; j < w; j++ {
				if res.Rows[i*w+j] != id {
					t.Fatalf("row %d torn apart", i)
				}
			}
			if rows[int(id)*w] != key {
				t.Fatalf("row %d key does not match origin %d", i, id)
			}
		}
	}
}

func TestClusterRowsErrors(t *testing.T) {
	if _, err := freshRows(make([]int32, 10), 3, 0, Opts{Bits: 1}); err == nil {
		t.Fatal("non-multiple length not rejected")
	}
	if _, err := freshRows(make([]int32, 9), 3, 3, Opts{Bits: 1}); err == nil {
		t.Fatal("key column out of range not rejected")
	}
}

func TestCount(t *testing.T) {
	// The radix_count of Figure 4 is the clustering's own offsets: they
	// must be the per-cluster counts of the clustered column's radix
	// field, which is non-decreasing.
	key := make([]OID, 500)
	other := make([]OID, 500)
	rng := rand.New(rand.NewPCG(3, 3))
	for i := range key {
		key[i] = OID(rng.Uint32() % 512)
		other[i] = OID(i)
	}
	o := Opts{Bits: 4, Ignore: 2}
	res, err := ClusterOIDPairs(key, other, o)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, 1<<o.Bits)
	for i, k := range res.Key {
		r := int(k>>o.Ignore) & (1<<o.Bits - 1)
		if i > 0 && r < int(res.Key[i-1]>>o.Ignore)&(1<<o.Bits-1) {
			t.Fatalf("clustered column decreases in its radix field at %d", i)
		}
		counts[r]++
	}
	borders := res.Borders()
	if len(borders) != len(counts) {
		t.Fatalf("%d borders, want %d", len(borders), len(counts))
	}
	for c, b := range borders {
		if b.Size() != counts[c] {
			t.Fatalf("border %d = %v, holds %d tuples of its radix value", c, b, counts[c])
		}
	}
}

func TestOptimalBits(t *testing.T) {
	// Paper §3.1 example: 64KB cache, 4-byte values, 10M-tuple source
	// column → 2^10 = 1024 clusters.
	if got := OptimalBits(10_000_000, 4, 64<<10); got != 10 {
		t.Fatalf("OptimalBits(10M,4,64K) = %d, want 10", got)
	}
	// Column already fits the cache: no clustering needed.
	if got := OptimalBits(1000, 4, 64<<10); got != 0 {
		t.Fatalf("OptimalBits(small) = %d, want 0", got)
	}
	if got := OptimalBits(0, 4, 64<<10); got != 0 {
		t.Fatalf("OptimalBits(0) = %d, want 0", got)
	}
}

func TestIgnoreBits(t *testing.T) {
	// §3.1 example: 10M-entry join-index (log2 ≈ 24), B=10 → I=14.
	if got := IgnoreBits(10_000_000, 10); got != 14 {
		t.Fatalf("IgnoreBits(10M,10) = %d, want 14", got)
	}
	if got := IgnoreBits(8, 10); got != 0 {
		t.Fatalf("IgnoreBits must clamp at 0, got %d", got)
	}
}

// Property: for arbitrary data and any (B,I,passes) combination,
// clustering preserves the multiset and clusters are radix-pure.
func TestClusterBUNsQuick(t *testing.T) {
	f := func(seed uint64, bits8, ignore8, pass8 uint8) bool {
		bits := int(bits8%8) + 1
		ignore := int(ignore8 % 8)
		maxPer := int(pass8%3) + 1
		o := Opts{Bits: bits, Ignore: ignore, Passes: SplitBits(bits, maxPer)}
		heads, vals := randomPairs(257, seed)
		bres, err := freshBUNs(heads, vals, o)
		if err != nil {
			return false
		}
		res := unpack(bres)
		if err := bat.ValidateBorders(bat.BordersFromOffsets(res.Offsets), len(heads)); err != nil {
			return false
		}
		var sumIn, sumOut int64
		for i := range heads {
			sumIn += int64(heads[i])*100003 + int64(hash.Int32(vals[i]))
			sumOut += int64(res.Heads[i])*100003 + int64(res.Hashes[i])
		}
		return sumIn == sumOut
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Properties of §3.2: radix-clustering [pos,oid] pairs on the oid,
// where pos was the dense sequence 0..N-1, yields a pos column that
// (1) is still a permutation of 0..N-1 and (2) is sorted within each
// cluster, because Radix-Cluster appends sequentially and thus
// locally respects input order. These two properties are exactly what
// Radix-Decluster's correctness rests on.
func TestPartialClusterDenseProperties(t *testing.T) {
	f := func(seed uint64, bits8 uint8) bool {
		n := 700
		bits := int(bits8%6) + 1
		ignore := IgnoreBits(n, bits)
		rng := rand.New(rand.NewPCG(seed, 5))
		key := make([]OID, n) // the "smaller"-side oids, shuffled
		pos := make([]OID, n) // dense result positions 0..N-1
		for i := range key {
			key[i] = OID(i)
			pos[i] = OID(i)
		}
		rng.Shuffle(n, func(i, j int) { key[i], key[j] = key[j], key[i] })
		res, err := ClusterOIDPairs(key, pos, Opts{Bits: bits, Ignore: ignore})
		if err != nil {
			return false
		}
		return bat.IsPermutation(res.Other) && bat.SortedWithin(res.Other, res.Borders())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
