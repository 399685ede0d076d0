package join_test

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"radixdecluster/internal/bat"
	"radixdecluster/internal/exec"
	"radixdecluster/internal/hash"
	"radixdecluster/internal/join"
	"radixdecluster/internal/radix"
)

type pair [2]join.OID // [larger oid, smaller oid]

func comparePairs(a, b pair) int {
	return slices.Compare(a[:], b[:])
}

// refEquiJoin is the independent oracle: an equi-join that shares
// nothing with the engines — no hash function, radix bits, clustering
// or BUNs, just a map from key to the smaller oids that carry it. It
// returns the match multiset, sorted.
func refEquiJoin(lo []join.OID, lk []int32, so []join.OID, sk []int32) []pair {
	byKey := map[int32][]join.OID{}
	for i, k := range sk {
		byKey[k] = append(byKey[k], so[i])
	}
	var out []pair
	for i, k := range lk {
		for _, s := range byKey[k] {
			out = append(out, pair{lo[i], s})
		}
	}
	slices.SortFunc(out, comparePairs)
	return out
}

// refDistinct is the independent distinctness oracle: whether no key
// occurs twice, by a map of the keys seen.
func refDistinct(keys []int32) bool {
	seen := make(map[int32]bool, len(keys))
	for _, k := range keys {
		if seen[k] {
			return false
		}
		seen[k] = true
	}
	return true
}

func sortedPairs(ix *join.Index) []pair {
	out := make([]pair, ix.Len())
	for i := range out {
		out[i] = pair{ix.Larger[i], ix.Smaller[i]}
	}
	slices.SortFunc(out, comparePairs)
	return out
}

// unmix inverts hash.Mix (internal/hash's TestMixIsBijection pins the
// same inverse): it builds keys whose hashes are chosen.
func unmix(h uint32) int32 {
	h ^= h >> 16
	h *= 0x7ed1b41d
	h ^= h>>13 ^ h>>26
	h *= 0xa5cb9243
	h ^= h >> 16
	return int32(h)
}

// edgeKeys are the int32 extremes and the values around 0.
var edgeKeys = []int32{math.MinInt32, math.MinInt32 + 1, -1, 0, 1, math.MaxInt32 - 1, math.MaxInt32}

// keyShapes draw the two key columns. Oids are a shuffled dense range
// on each side, so a pair names its tuples unambiguously. capS, when
// set, bounds the smaller side: a shape whose matches or chains grow
// with |larger| × |smaller| keeps that product small.
var keyShapes = []struct {
	name string
	capS int
	gen  func(rng *rand.Rand, lk, sk []int32)
}{
	{"unique, hit rate 1", 0, func(rng *rand.Rand, lk, sk []int32) {
		for i := range sk {
			sk[i] = int32(i) * 7
		}
		rng.Shuffle(len(sk), func(i, j int) { sk[i], sk[j] = sk[j], sk[i] })
		for i := range lk {
			lk[i] = int32(rng.IntN(max(len(sk), 1))) * 7
		}
	}},
	{"hit rate 3: every smaller key three times", 0, func(rng *rand.Rand, lk, sk []int32) {
		domain := max(len(sk)/3, 1)
		for i := range sk {
			sk[i] = int32(i%domain) - 5
		}
		for i := range lk {
			lk[i] = int32(rng.IntN(domain)) - 5
		}
	}},
	{"hit rate 0.3", 0, func(rng *rand.Rand, lk, sk []int32) {
		for i := range sk {
			sk[i] = int32(i)
		}
		for i := range lk {
			lk[i] = int32(rng.IntN(max(len(sk)*10/3, 1)))
		}
	}},
	{"duplicates on both sides", 0, func(rng *rand.Rand, lk, sk []int32) {
		for i := range sk {
			sk[i] = int32(rng.IntN(max(len(sk)/2, 1))) << 12
		}
		for i := range lk {
			lk[i] = int32(rng.IntN(max(len(sk)/2, 1))) << 12
		}
	}},
	{"all equal", 40, func(_ *rand.Rand, lk, sk []int32) {
		// |larger| × |smaller| matches: keep one side tiny.
		for i := range sk {
			sk[i] = -1
			if i >= 5 {
				sk[i] = int32(i)
			}
		}
		for i := range lk {
			lk[i] = -1
		}
	}},
	{"Zipf-skewed larger keys", 0, func(rng *rand.Rand, lk, sk []int32) {
		for i := range sk {
			sk[i] = int32(i)
		}
		z := rand.NewZipf(rng, 1.3, 1, uint64(max(len(sk), 1)-1))
		for i := range lk {
			lk[i] = int32(z.Uint64())
		}
	}},
	{"absent: disjoint key domains", 0, func(rng *rand.Rand, lk, sk []int32) {
		for i := range sk {
			sk[i] = int32(rng.Uint32() | 1)
		}
		for i := range lk {
			lk[i] = int32(rng.Uint32() &^ 1)
		}
	}},
	{"extreme values, each smaller one twice", 0, func(rng *rand.Rand, lk, sk []int32) {
		for i := range sk {
			sk[i] = int32(i)*7919 + 3
			if i < 2*len(edgeKeys) {
				sk[i] = edgeKeys[i%len(edgeKeys)]
			}
		}
		for i := range lk {
			lk[i] = edgeKeys[rng.IntN(len(edgeKeys))]
			if len(sk) > 0 && rng.IntN(3) > 0 {
				lk[i] = sk[rng.IntN(len(sk))]
			}
		}
	}},
	{"hashes sharing every bucket bit: one long chain", 64, func(rng *rand.Rand, lk, sk []int32) {
		// Distinct keys whose hashes agree on their low 22 bits: every
		// radix field (≤ 13 bits) puts them in one partition, and every
		// table over ≤ 64 tuples (512 buckets past a ≤ 13-bit shift) in
		// one bucket, so each probe walks the whole chain and only the
		// hash compare tells the keys apart.
		const low = 0x2a5a5a
		key := func(i int) int32 {
			k := unmix(uint32(i)<<22 | low)
			if hash.Int32(k) != uint32(i)<<22|low {
				panic("unmix does not invert hash.Mix")
			}
			return k
		}
		for i := range sk {
			sk[i] = key(i)
		}
		for i := range lk {
			lk[i] = key(rng.IntN(2*len(sk) + 1))
		}
	}},
}

func genSides(rng *rand.Rand, shape, nL, nS int) (lo []join.OID, lk []int32, so []join.OID, sk []int32) {
	lo, lk, so, sk = make([]join.OID, nL), make([]int32, nL), make([]join.OID, nS), make([]int32, nS)
	for _, oids := range [][]join.OID{lo, so} {
		for i := range oids {
			oids[i] = join.OID(i)
		}
		rng.Shuffle(len(oids), func(i, j int) { oids[i], oids[j] = oids[j], oids[i] })
	}
	keyShapes[shape].gen(rng, lk, sk)
	return lo, lk, so, sk
}

// checkAgainstOracle joins one input under one clustering with both
// engines, over BUNs and over join images: each must return exactly the
// oracle's pair multiset, and all of them the identical sequence. Each
// image's distinctness check (join.DistinctHashes) must agree with the
// map oracle's, and over a distinct smaller side the image probes run
// twice — walking every chain to its end, and stopping each probe at
// its first match (Image.Distinct) — and join.ProbeFirst over every
// partition pair, compacted, must give that sequence too. A nil rt
// checks the serial engine alone.
func checkAgainstOracle(t *testing.T, rt *exec.Runtime, lo []join.OID, lk []int32, so []join.OID, sk []int32, want []pair, o radix.Opts) {
	t.Helper()
	se := exec.NewEngine(nil, 0) // the serial paper engine
	defer se.Close()             // its join-index is leased too
	serial, err := se.PartitionedJoin(lo, lk, so, sk, o)
	if err != nil {
		t.Fatalf("%+v: serial: %v", o, err)
	}
	if got := sortedPairs(serial); !slices.Equal(got, want) {
		t.Fatalf("%+v: serial join returned %d pairs, the oracle %d, or different ones", o, len(got), len(want))
	}
	engines := []bool{false}
	var e *exec.Engine
	if rt != nil {
		e = exec.NewEngine(rt, 2)
		defer e.Close() // the parallel join-index is leased from the engine
		parallel, err := e.PartitionedJoin(lo, lk, so, sk, o)
		if err != nil {
			t.Fatalf("%+v: parallel: %v", o, err)
		}
		if !slices.Equal(parallel.Larger, serial.Larger) || !slices.Equal(parallel.Smaller, serial.Smaller) {
			t.Fatalf("%+v: parallel join-index is not the serial sequence (%d vs %d pairs)", o, parallel.Len(), serial.Len())
		}
		engines = append(engines, true)
	}
	// Over join images: the image positions, mapped through the clustered
	// oids kept beside each image, name the BUN probe's sequence.
	li, lOIDs := image(t, lo, lk, o)
	si, sOIDs := image(t, so, sk, o)
	shift := uint(o.Ignore + o.Bits)
	for i, img := range []*join.Image{li, si} {
		keys := [2][]int32{lk, sk}[i]
		if got, want := join.DistinctHashes(img, shift), refDistinct(keys); got != want {
			t.Fatalf("%+v: side %d: DistinctHashes = %v over %d keys, the map oracle %v", o, i, got, len(keys), want)
		}
	}
	walks := []bool{false}
	if refDistinct(sk) {
		walks = append(walks, true)
		// ProbeFirst over every partition pair, compacted: the oracle's
		// pairs, in the BUN probe's sequence.
		got := probeFirstAll(t, li, si, shift)
		positionsToOIDs(got.Larger, lOIDs)
		positionsToOIDs(got.Smaller, sOIDs)
		if !slices.Equal(got.Larger, serial.Larger) || !slices.Equal(got.Smaller, serial.Smaller) {
			t.Fatalf("%+v: ProbeFirst, compacted: join-index is not the BUN probe's sequence (%d vs %d pairs)", o, got.Len(), serial.Len())
		}
	}
	for _, par := range engines {
		for _, distinct := range walks {
			si.Distinct = distinct
			got := &join.Index{}
			if par {
				// The engine projects each side's image positions: its result
				// columns are the join-index.
				got = projectPositions(t, e, li, si, shift)
			} else {
				var ts join.TableScratch
				if err := join.PartitionedImagesInto(got, &ts, li, si, shift); err != nil {
					t.Fatalf("%+v: images: %v", o, err)
				}
				checkParts(t, got, li, si)
			}
			checkLIFO(t, got)
			positionsToOIDs(got.Larger, lOIDs)
			positionsToOIDs(got.Smaller, sOIDs)
			if !slices.Equal(got.Larger, serial.Larger) || !slices.Equal(got.Smaller, serial.Smaller) {
				t.Fatalf("%+v: images (parallel=%v, distinct=%v): join-index is not the BUN probe's sequence (%d vs %d pairs)",
					o, par, distinct, got.Len(), serial.Len())
			}
		}
	}
}

// probeFirstAll is join.ProbeFirst over every partition pair of two
// images, each partition's slots compacted by join.CompactFirst and
// appended: over a distinct smaller side, the join-index of
// join.PartitionedImagesInto. Each probe's hit count must be its
// compaction's.
func probeFirstAll(t *testing.T, larger, smaller *join.Image, shift uint) *join.Index {
	t.Helper()
	n := len(larger.Hashes)
	ix := &join.Index{Larger: make([]join.OID, n), Smaller: make([]join.OID, n)}
	var ts join.TableScratch
	m := 0
	for p := 0; p+1 < len(larger.Offsets); p++ {
		ll, lh := larger.Offsets[p], larger.Offsets[p+1]
		sl, sh := smaller.Offsets[p], smaller.Offsets[p+1]
		slots := ix.Smaller[m : m+lh-ll]
		hits := join.ProbeFirst(smaller.Hashes[sl:sh], larger.Hashes[ll:lh], sl, shift, slots, &ts)
		if got := join.CompactFirst(slots, ix.Larger[m:], ll); got != hits {
			t.Fatalf("partition %d: ProbeFirst counted %d hits, its slots hold %d", p, hits, got)
		}
		m += hits
	}
	ix.Larger, ix.Smaller = ix.Larger[:m], ix.Smaller[:m]
	return ix
}

// projectPositions runs the engine's u/u projection over two images
// whose one column holds each tuple's image position, and returns the
// projected positions as a join-index.
func projectPositions(t *testing.T, e *exec.Engine, larger, smaller *join.Image, shift uint) *join.Index {
	t.Helper()
	positions := func(n int) [][]int32 {
		col := make([]int32, n)
		for i := range col {
			col[i] = int32(i)
		}
		return [][]int32{col}
	}
	pr, err := e.ProjectImages(&exec.Image{Image: *larger, Cols: positions(len(larger.Hashes))},
		&exec.Image{Image: *smaller, Cols: positions(len(smaller.Hashes))}, shift)
	if err != nil {
		t.Fatalf("images (parallel): %v", err)
	}
	ix := &join.Index{Larger: make([]join.OID, pr.N), Smaller: make([]join.OID, pr.N)}
	for i := range pr.N {
		ix.Larger[i], ix.Smaller[i] = join.OID(pr.Larger[0][i]), join.OID(pr.Smaller[0][i])
	}
	return ix
}

// checkLIFO checks the chain order of a join-index whose smaller side
// holds image positions: the matches of one probe tuple are adjacent,
// and a smaller key's duplicates match newest first — in descending
// image position, since the image keeps input order within a partition.
func checkLIFO(t *testing.T, ix *join.Index) {
	t.Helper()
	for i := 1; i < ix.Len(); i++ {
		if ix.Larger[i] == ix.Larger[i-1] && ix.Smaller[i] >= ix.Smaller[i-1] {
			t.Fatalf("match %d: smaller position %d follows %d for one probe tuple, want descending (LIFO chain)", i, ix.Smaller[i], ix.Smaller[i-1])
		}
	}
}

// checkParts checks the partition offsets of a join-index over two
// images: they tile the join-index, and each partition's matches hold
// positions of that partition on both sides.
func checkParts(t *testing.T, ix *join.Index, larger, smaller *join.Image) {
	t.Helper()
	h := len(larger.Offsets) - 1
	if len(ix.Parts) != h+1 || ix.Parts[0] != 0 || ix.Parts[h] != ix.Len() {
		t.Fatalf("partition offsets %v do not tile %d matches in %d partitions", ix.Parts, ix.Len(), h)
	}
	for p := range h {
		for i := ix.Parts[p]; i < ix.Parts[p+1]; i++ {
			l, s := int(ix.Larger[i]), int(ix.Smaller[i])
			if l < larger.Offsets[p] || l >= larger.Offsets[p+1] || s < smaller.Offsets[p] || s >= smaller.Offsets[p+1] {
				t.Fatalf("match %d in partition %d holds positions %d/%d outside it", i, p, l, s)
			}
		}
	}
}

// image is the join image of an [oid, key] input and, beside it, the
// oids in image order.
func image(t *testing.T, oids []join.OID, keys []int32, o radix.Opts) (*join.Image, []join.OID) {
	t.Helper()
	offs, err := radix.KeyOffsets(keys, o)
	if err != nil {
		t.Fatal(err)
	}
	return &join.Image{Hashes: radix.PermuteHashes(keys, o, offs), Offsets: offs}, radix.PermuteInto(make([]join.OID, len(keys)), keys, oids, o, offs)
}

// positionsToOIDs replaces image positions by the oids at them.
func positionsToOIDs(pos, oids []join.OID) {
	for i, p := range pos {
		pos[i] = oids[p]
	}
}

// optsFor rotates the fan-outs over the case index so the table covers
// Bits 0–13, single- and multi-pass, with the extremes on every case:
// 13 bits is past the parallel engine's first-level cap (two levels).
func optsFor(i int) []radix.Opts {
	a, b := 1+i%12, 1+(i*5+3)%12
	return []radix.Opts{
		{Bits: 0},
		{Bits: a},
		{Bits: b, Passes: radix.SplitBits(b, 4)},
		{Bits: 13},
		{Bits: 13, Passes: []int{7, 6}},
	}
}

func TestPartitionedMatchesIndependentOracle(t *testing.T) {
	rt := exec.NewRuntimeOpts(exec.Options{Workers: 2})
	defer rt.Close()
	// Sizes straddle exec.MinParallelN (the parallel engine's serial
	// fallback is decided on |larger| + |smaller|), with empty sides.
	half := exec.MinParallelN / 2
	sizes := [][2]int{{0, 300}, {300, 0}, {1000, 700}, {half - 1, half}, {half, half}, {40000, 25000}}
	rng := rand.New(rand.NewPCG(13, 1))
	i := 0
	for shape := range keyShapes {
		for _, sz := range sizes {
			nL, nS := sz[0], sz[1]
			if c := keyShapes[shape].capS; c > 0 {
				nS = min(nS, c)
			}
			lo, lk, so, sk := genSides(rng, shape, nL, nS)
			want := refEquiJoin(lo, lk, so, sk)
			t.Run(fmt.Sprintf("%s/%dx%d", keyShapes[shape].name, nL, nS), func(t *testing.T) {
				for _, o := range optsFor(i) {
					checkAgainstOracle(t, rt, lo, lk, so, sk, want, o)
				}
			})
			i++
		}
	}
}

func TestPartitionedMatchesIndependentOracleRandom(t *testing.T) {
	rt := exec.NewRuntimeOpts(exec.Options{Workers: 2})
	defer rt.Close()
	rng := rand.New(rand.NewPCG(13, 2))
	for range 40 {
		shape := rng.IntN(len(keyShapes))
		nL, nS := rng.IntN(3*exec.MinParallelN), rng.IntN(2*exec.MinParallelN)
		if c := keyShapes[shape].capS; c > 0 {
			nS = min(nS, c)
		}
		bits := rng.IntN(14)
		o := radix.Opts{Bits: bits}
		if bits > 1 && rng.IntN(2) == 0 {
			o.Passes = radix.SplitBits(bits, 1+rng.IntN(bits))
		}
		lo, lk, so, sk := genSides(rng, shape, nL, nS)
		checkAgainstOracle(t, rt, lo, lk, so, sk, refEquiJoin(lo, lk, so, sk), o)
	}
}

// fuzzKey spreads a fuzzed byte over the int32 domain, with the two
// extremes on the byte's extremes; equal bytes give equal keys.
func fuzzKey(b byte) int32 {
	switch b {
	case 0:
		return math.MinInt32
	case 255:
		return math.MaxInt32
	}
	return int32(int8(b)) * 0x01000193
}

// FuzzPartitionedJoin holds the serial engines — over BUNs and over join
// images, with the first-match probe of a distinct smaller image too,
// through join.ProbeImage and as join.ProbeFirst compacted — and the
// images' distinctness check to the map-based oracles on fuzzed keys,
// radix fields and pass splits: the first half of raw keys the larger
// side, the rest the smaller. Run with `go test -fuzz=FuzzPartitionedJoin
// ./internal/join`; the seed corpus runs under plain `go test`.
func FuzzPartitionedJoin(f *testing.F) {
	f.Add([]byte{}, uint8(0), uint8(0))
	f.Add([]byte{1, 2, 3, 1, 2, 3}, uint8(3), uint8(0))
	f.Add([]byte{0, 255, 7, 7, 0, 255, 7, 7, 7, 0}, uint8(13), uint8(3))
	f.Add([]byte{9, 9, 9, 9, 9, 9, 1, 2, 9, 9, 9}, uint8(6), uint8(5))
	f.Add([]byte{128, 127, 129, 126, 1, 254, 128, 127, 200, 55}, uint8(10), uint8(9))
	// A smaller duplicate behind another entry of its bucket chain: keys
	// 1 and 10 share partition 3 of 4 and their 16-bucket table's bucket,
	// so the second 1 finds 10 at the chain head and the first 1 behind it.
	f.Add([]byte{1, 10, 5, 1, 10, 1}, uint8(2), uint8(0))
	// A smaller duplicate in the last partition: key 3 lies in partition
	// 7 of 8, the other keys in partitions 1, 4 and 5.
	f.Add([]byte{3, 2, 5, 6, 13, 2, 5, 3, 6, 3}, uint8(3), uint8(0))
	f.Fuzz(func(t *testing.T, raw []byte, bits8, split8 uint8) {
		o := radix.Opts{Bits: int(bits8 % 14)}
		if o.Bits > 1 && split8&1 == 1 {
			o.Passes = radix.SplitBits(o.Bits, 1+int(split8>>1)%o.Bits)
		}
		half := len(raw) / 2
		lk, sk := make([]int32, half), make([]int32, len(raw)-half)
		for i, b := range raw[:half] {
			lk[i] = fuzzKey(b)
		}
		for i, b := range raw[half:] {
			sk[i] = fuzzKey(b)
		}
		lo, so := bat.Dense(len(lk)), bat.Dense(len(sk))
		checkAgainstOracle(t, nil, lo, lk, so, sk, refEquiJoin(lo, lk, so, sk), o)
	})
}

// A partition with more matches than its carved [lo:lo:hi] share of a
// shared arena (duplicate smaller keys) must move to arrays of its own
// and leave the neighbouring partition's list alone.
func TestProbeBUNsOverflowLeavesNeighbourIntact(t *testing.T) {
	bun := func(key int32, oid join.OID) uint64 { return radix.BUN(hash.Int32(key), oid) }
	// Partition 0: 4 probes × 3 copies of their key = 12 matches into a
	// carving of 4. Partition 1: key–foreign-key, fills its carving.
	smaller0 := []uint64{bun(9, 0), bun(9, 1), bun(9, 2)}
	larger0 := []uint64{bun(9, 10), bun(9, 11), bun(9, 12), bun(9, 13)}
	smaller1 := []uint64{bun(4, 3), bun(5, 4)}
	larger1 := []uint64{bun(5, 14), bun(4, 15), bun(5, 16)}
	n0, n1 := len(larger0), len(larger1)
	arenaL, arenaS := make([]join.OID, n0+n1), make([]join.OID, n0+n1)
	parts := []join.Index{
		{Larger: arenaL[0:0:n0], Smaller: arenaS[0:0:n0]},
		{Larger: arenaL[n0 : n0 : n0+n1], Smaller: arenaS[n0 : n0 : n0+n1]},
	}
	var ts join.TableScratch
	join.ProbeBUNs(smaller1, larger1, 0, &parts[1], &ts)
	wantL1, wantS1 := []join.OID{14, 15, 16}, []join.OID{4, 3, 4}
	if !slices.Equal(parts[1].Larger, wantL1) || !slices.Equal(parts[1].Smaller, wantS1) {
		t.Fatalf("partition 1: got %v / %v", parts[1].Larger, parts[1].Smaller)
	}
	join.ProbeBUNs(smaller0, larger0, 0, &parts[0], &ts)
	// LIFO chain: the duplicates of a smaller key match newest first.
	wantL0 := []join.OID{10, 10, 10, 11, 11, 11, 12, 12, 12, 13, 13, 13}
	wantS0 := []join.OID{2, 1, 0, 2, 1, 0, 2, 1, 0, 2, 1, 0}
	if !slices.Equal(parts[0].Larger, wantL0) || !slices.Equal(parts[0].Smaller, wantS0) {
		t.Fatalf("overflowing partition: got %v / %v", parts[0].Larger, parts[0].Smaller)
	}
	if !slices.Equal(parts[1].Larger, wantL1) || !slices.Equal(parts[1].Smaller, wantS1) ||
		!slices.Equal(arenaL[n0:], wantL1) || !slices.Equal(arenaS[n0:], wantS1) {
		t.Fatalf("overflow of partition 0 clobbered partition 1: %v / %v", arenaL[n0:], arenaS[n0:])
	}
	if &parts[0].Larger[0] == &arenaL[0] {
		t.Fatal("overflowing partition still aliases the arena")
	}
}
