package join

import (
	"math/rand/v2"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"radixdecluster/internal/hash"
	"radixdecluster/internal/radix"
)

// refJoin computes the expected match set with a map: pairs of
// (largerOID, smallerOID) for equal keys.
func refJoin(lOIDs []OID, lKeys []int32, sOIDs []OID, sKeys []int32) map[[2]OID]int {
	byKey := map[int32][]OID{}
	for i, k := range sKeys {
		byKey[k] = append(byKey[k], sOIDs[i])
	}
	out := map[[2]OID]int{}
	for i, k := range lKeys {
		for _, so := range byKey[k] {
			out[[2]OID{lOIDs[i], so}]++
		}
	}
	return out
}

func checkIndex(t *testing.T, ix *Index, want map[[2]OID]int) {
	t.Helper()
	got := map[[2]OID]int{}
	for i := range ix.Larger {
		got[[2]OID{ix.Larger[i], ix.Smaller[i]}]++
	}
	if len(got) != len(want) {
		t.Fatalf("join produced %d distinct pairs, want %d", len(got), len(want))
	}
	for p, c := range want {
		if got[p] != c {
			t.Fatalf("pair %v appears %d times, want %d", p, got[p], c)
		}
	}
}

func genSides(nL, nS, keyRange int, seed uint64) ([]OID, []int32, []OID, []int32) {
	rng := rand.New(rand.NewPCG(seed, 1))
	lo := make([]OID, nL)
	lk := make([]int32, nL)
	for i := range lo {
		lo[i] = OID(i)
		lk[i] = int32(rng.IntN(keyRange))
	}
	so := make([]OID, nS)
	sk := make([]int32, nS)
	for i := range so {
		so[i] = OID(i)
		sk[i] = int32(rng.IntN(keyRange))
	}
	return lo, lk, so, sk
}

// clusterBUNs is radix.ClusterBUNsInto into fresh ping-pong buffers.
func clusterBUNs(oids []OID, keys []int32, o radix.Opts) (*radix.BUNsResult, error) {
	return radix.ClusterBUNsInto([2][]uint64{make([]uint64, len(keys)), make([]uint64, len(keys))}, oids, keys, o)
}

// partitioned is the Partitioned Hash-Join from its caller-buffer
// forms: both inputs clustered as BUNs, then
// PartitionedPreclusteredInto into fresh buffers.
func partitioned(lo []OID, lk []int32, so []OID, sk []int32, o radix.Opts) (*Index, error) {
	if err := CheckInputs(lo, lk, so, sk); err != nil {
		return nil, err
	}
	cl, err := clusterBUNs(lo, lk, o)
	if err != nil {
		return nil, err
	}
	cs, err := clusterBUNs(so, sk, o)
	if err != nil {
		return nil, err
	}
	ix := &Index{Larger: make([]OID, 0, len(lo)), Smaller: make([]OID, 0, len(lo))}
	var ts TableScratch
	return ix, PartitionedPreclusteredInto(ix, &ts, cl, cs, uint(o.Ignore+o.Bits))
}

// hashRows is the naive pre-projection Hash-Join from its caller-buffer
// forms: one BuildRowsTable over the smaller tuples, one ProbeRows.
func hashRows(larger []int32, lw, lkey int, smaller []int32, sw, skey int) (*RowsResult, error) {
	if err := CheckRows(larger, lw, lkey); err != nil {
		return nil, err
	}
	ns := len(smaller) / max(sw, 1)
	t, err := BuildRowsTable(smaller, sw, skey, 0, make([]int32, NumBuckets(ns)), make([]int32, ns))
	if err != nil {
		return nil, err
	}
	rows, n := t.ProbeRows(larger, lw, lkey, nil)
	return &RowsResult{Rows: rows, Width: lw + sw - 2, N: n}, nil
}

// Exported to the external row-join tests (rows_test.go), which run
// the engine's joins against these references.
var (
	HashRowsRef = hashRows
	RowsToPairs = rowsToPairs
)

func TestHashJoinSmall(t *testing.T) {
	lo := []OID{0, 1, 2, 3}
	lk := []int32{7, 8, 7, 9}
	so := []OID{0, 1, 2}
	sk := []int32{7, 9, 7}
	ix, err := HashJoin(lo, lk, so, sk)
	if err != nil {
		t.Fatal(err)
	}
	checkIndex(t, ix, refJoin(lo, lk, so, sk))
	if ix.Len() != 5 { // oids 0,2 each match 0,2 (4 pairs) + 3↔1
		t.Fatalf("Len = %d, want 5", ix.Len())
	}
}

func TestHashJoinNoMatches(t *testing.T) {
	ix, err := HashJoin([]OID{0}, []int32{1}, []OID{0}, []int32{2})
	if err != nil {
		t.Fatal(err)
	}
	if ix.Len() != 0 {
		t.Fatalf("Len = %d, want 0", ix.Len())
	}
}

func TestHashJoinEmpty(t *testing.T) {
	ix, err := HashJoin(nil, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ix.Len() != 0 {
		t.Fatal("empty join must be empty")
	}
}

func TestHashJoinMismatch(t *testing.T) {
	if _, err := HashJoin([]OID{0}, []int32{1, 2}, nil, nil); err == nil {
		t.Fatal("length mismatch not rejected")
	}
}

func TestPartitionedMatchesHashJoin(t *testing.T) {
	lo, lk, so, sk := genSides(3000, 1000, 800, 3)
	want := refJoin(lo, lk, so, sk)
	for _, o := range []radix.Opts{
		{Bits: 0},
		{Bits: 4},
		{Bits: 6, Passes: []int{3, 3}},
		{Bits: 8, Passes: []int{3, 3, 2}},
	} {
		ix, err := partitioned(lo, lk, so, sk, o)
		if err != nil {
			t.Fatalf("bits=%d: %v", o.Bits, err)
		}
		checkIndex(t, ix, want)
	}
}

func TestPartitionedSkewedKeys(t *testing.T) {
	// All keys identical: hashing must not break correctness, and the
	// join degenerates to a cross product of one partition.
	n := 64
	lo := make([]OID, n)
	lk := make([]int32, n)
	so := make([]OID, n)
	sk := make([]int32, n)
	for i := 0; i < n; i++ {
		lo[i], so[i] = OID(i), OID(i)
		lk[i], sk[i] = 42, 42
	}
	ix, err := partitioned(lo, lk, so, sk, radix.Opts{Bits: 4})
	if err != nil {
		t.Fatal(err)
	}
	if ix.Len() != n*n {
		t.Fatalf("Len = %d, want %d", ix.Len(), n*n)
	}
}

func TestPartitionedQuick(t *testing.T) {
	f := func(seed uint64, bits8 uint8) bool {
		bits := int(bits8 % 7)
		lo, lk, so, sk := genSides(400, 300, 50, seed)
		ix, err := partitioned(lo, lk, so, sk, radix.Opts{Bits: bits})
		if err != nil {
			return false
		}
		want := refJoin(lo, lk, so, sk)
		got := map[[2]OID]int{}
		for i := range ix.Larger {
			got[[2]OID{ix.Larger[i], ix.Smaller[i]}]++
		}
		if len(got) != len(want) {
			return false
		}
		for p, c := range want {
			if got[p] != c {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// rowsToPairs flattens a RowsResult into sorted row tuples for
// order-insensitive comparison.
func rowsToPairs(r *RowsResult) [][]int32 {
	n := r.Len()
	out := make([][]int32, n)
	for i := 0; i < n; i++ {
		out[i] = r.Rows[i*r.Width : (i+1)*r.Width]
	}
	sort.Slice(out, func(i, j int) bool {
		for k := range out[i] {
			if out[i][k] != out[j][k] {
				return out[i][k] < out[j][k]
			}
		}
		return false
	})
	return out
}

func TestHashRows(t *testing.T) {
	// larger: [key, a1]; smaller: [key, b1, b2].
	larger := []int32{
		7, 100,
		8, 200,
		7, 300,
	}
	smaller := []int32{
		7, 10, 11,
		9, 20, 21,
	}
	res, err := hashRows(larger, 2, 0, smaller, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Width != 3 {
		t.Fatalf("Width = %d, want 3", res.Width)
	}
	got := rowsToPairs(res)
	want := [][]int32{{100, 10, 11}, {300, 10, 11}}
	if len(got) != len(want) {
		t.Fatalf("got %d rows, want %d", len(got), len(want))
	}
	for i := range want {
		for k := range want[i] {
			if got[i][k] != want[i][k] {
				t.Fatalf("row %d = %v, want %v", i, got[i], want[i])
			}
		}
	}
}

func TestPlanBits(t *testing.T) {
	// 1M 4-byte tuples, 512KB cache: each tuple needs ~12 bytes with
	// table overhead → ~43K fit → B = 1+19-15 = 5.
	b := PlanBits(1_000_000, 4, 512<<10)
	if b < 4 || b > 6 {
		t.Fatalf("PlanBits(1M) = %d, want ≈5", b)
	}
	if PlanBits(100, 4, 512<<10) != 0 {
		t.Fatal("small relation needs no partitioning")
	}
}

// Regression: inside a radix partition every key shares the low B
// hash bits, so the per-partition hash table must bucket on the
// *remaining* bits — otherwise all tuples chain into a couple of
// buckets and probing degenerates to O(n²) (the Figure-9b spike this
// repository once measured at B≈10).
func TestTableBucketsSkipClusteredBits(t *testing.T) {
	const bits = 10
	// Collect 4096 keys that all hash into radix partition 0.
	part := make([]uint64, 0, 4096)
	for k := int32(0); len(part) < cap(part); k++ {
		if hash.Int32(k)&(1<<bits-1) == 0 {
			part = append(part, radix.BUN(hash.Int32(k), uint32(len(part))))
		}
	}
	maxChain := func(shift uint) int {
		var ts TableScratch
		ProbeBUNs(part, nil, shift, &Index{}, &ts)
		m := 0
		for _, head := range ts.first[:bucketsPerTuple*NumBuckets(len(part))] {
			n := 0
			for e := head; e != 0; e = ts.next[e-1] {
				n++
			}
			m = max(m, n)
		}
		return m
	}
	// 4096 keys over 32768 buckets, but with the low 10 bucket bits
	// pinned only 32 buckets are reachable: chains of ~128.
	if got := maxChain(0); got < 100 {
		t.Fatalf("sanity: shift=0 should collapse chains, max chain = %d", got)
	}
	if got := maxChain(bits); got > 8 {
		t.Fatalf("shifted table still has chains of %d", got)
	}
}

func TestPartitionedPreclusteredMatchesPartitioned(t *testing.T) {
	lo, lk, so, sk := genSides(2000, 1500, 600, 9)
	o := radix.Opts{Bits: 5}
	want, err := HashJoin(lo, lk, so, sk)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := clusterBUNs(lo, lk, o)
	if err != nil {
		t.Fatal(err)
	}
	cs, err := clusterBUNs(so, sk, o)
	if err != nil {
		t.Fatal(err)
	}
	// Into empty buffers: every partition's matches grow them.
	got := &Index{}
	var ts TableScratch
	if err := PartitionedPreclusteredInto(got, &ts, cl, cs, uint(o.Bits)); err != nil {
		t.Fatal(err)
	}
	if got.Len() != want.Len() {
		t.Fatalf("preclustered join: %d matches, want %d", got.Len(), want.Len())
	}
	checkIndex(t, got, refJoin(lo, lk, so, sk))
	// Mismatched partition counts must be rejected.
	cs2, _ := clusterBUNs(so, sk, radix.Opts{Bits: 3})
	if err := PartitionedPreclusteredInto(&Index{}, &ts, cl, cs2, uint(o.Bits)); err == nil {
		t.Fatal("partition count mismatch not rejected")
	}
}

// TestProbeFirstSlots: ProbeFirst writes one slot per probe — the
// image position of its match, NoMatch for a miss — and counts the
// hits; CompactFirst turns the slots into ProbeHashes' join-index over
// the same partition pair. Over a warm TableScratch the probe allocates
// nothing.
func TestProbeFirstSlots(t *testing.T) {
	// Smaller image positions 10..13, larger 100..105; shift 2 buckets on
	// the bits above the two a partitioning would have consumed.
	smaller := []uint32{4, 8, 12, 40}
	larger := []uint32{12, 5, 4, 40, 8, 9}
	const sbase, lbase, shift = 10, 100, 2
	var ts TableScratch
	slots := make([]OID, len(larger))
	hits := ProbeFirst(smaller, larger, sbase, shift, slots, &ts)
	wantSlots := []OID{12, NoMatch, 10, 13, 11, NoMatch}
	if hits != 4 || !slices.Equal(slots, wantSlots) {
		t.Fatalf("ProbeFirst: %d hits, slots %v; want 4, %v", hits, slots, wantSlots)
	}
	want := &Index{Larger: make([]OID, 0, len(larger)), Smaller: make([]OID, 0, len(larger))}
	ProbeHashes(smaller, larger, sbase, lbase, shift, want, &ts)
	lpos := make([]OID, len(larger))
	m := CompactFirst(slots, lpos, lbase)
	if m != hits || !slices.Equal(lpos[:m], want.Larger) || !slices.Equal(slots[:m], want.Smaller) {
		t.Fatalf("CompactFirst: %d matches %v / %v; ProbeHashes %v / %v", m, lpos[:m], slots[:m], want.Larger, want.Smaller)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		ProbeFirst(smaller, larger, sbase, shift, slots, &ts)
	}); allocs != 0 {
		t.Fatalf("ProbeFirst over a warm TableScratch: %v allocations per run", allocs)
	}
}
