package workload

import (
	"slices"
	"testing"

	"radixdecluster/internal/bat"
	"radixdecluster/internal/exec"
	"radixdecluster/internal/join"
	"radixdecluster/internal/radix"
)

func TestValidate(t *testing.T) {
	good := Params{N: 100, Omega: 4, HitRate: 1, SelLarger: 1, SelSmaller: 1}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Params{
		{N: 0, Omega: 4, HitRate: 1, SelLarger: 1, SelSmaller: 1},
		{N: 10, Omega: 0, HitRate: 1, SelLarger: 1, SelSmaller: 1},
		{N: 10, Omega: 4, HitRate: 0, SelLarger: 1, SelSmaller: 1},
		{N: 10, Omega: 4, HitRate: 1, SelLarger: 0, SelSmaller: 1},
		{N: 10, Omega: 4, HitRate: 1, SelLarger: 1, SelSmaller: 1.5},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: %+v not rejected", i, p)
		}
	}
}

func TestGenPairDeterministic(t *testing.T) {
	p := Params{N: 500, Omega: 4, HitRate: 1, SelLarger: 1, SelSmaller: 1, Seed: 7}
	a, err := GenPair(p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenPair(p)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Larger.SelKeys {
		if a.Larger.SelKeys[i] != b.Larger.SelKeys[i] {
			t.Fatal("same seed must give same data")
		}
	}
}

// actualMatches joins the pair for real and counts.
func actualMatches(t *testing.T, pr *Pair) int {
	t.Helper()
	ix, err := join.HashJoin(pr.Larger.SelOIDs, pr.Larger.SelKeys, pr.Smaller.SelOIDs, pr.Smaller.SelKeys)
	if err != nil {
		t.Fatal(err)
	}
	return ix.Len()
}

func TestHitRates(t *testing.T) {
	const n = 3000
	for _, h := range []float64{3, 1, 0.3} {
		pr, err := GenPair(Params{N: n, Omega: 2, HitRate: h, SelLarger: 1, SelSmaller: 1, Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		got := actualMatches(t, pr)
		if got != pr.ExpectedMatches {
			t.Fatalf("h=%g: actual %d matches, ExpectedMatches says %d", h, got, pr.ExpectedMatches)
		}
		want := h * n
		if float64(got) < want*0.8 || float64(got) > want*1.2 {
			t.Fatalf("h=%g: %d matches, want ≈%.0f", h, got, want)
		}
	}
}

func TestSelectionStructure(t *testing.T) {
	pr, err := GenPair(Params{N: 1000, Omega: 3, HitRate: 1, SelLarger: 0.1, SelSmaller: 1, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	l := pr.Larger
	if l.BaseN < 9000 || l.BaseN > 11000 {
		t.Fatalf("BaseN = %d, want ≈10000", l.BaseN)
	}
	if l.N() != 1000 {
		t.Fatalf("N = %d", l.N())
	}
	// SelOIDs ascending, within range, unique.
	for i := 1; i < len(l.SelOIDs); i++ {
		if l.SelOIDs[i] <= l.SelOIDs[i-1] {
			t.Fatal("SelOIDs not strictly ascending")
		}
	}
	if int(l.SelOIDs[len(l.SelOIDs)-1]) >= l.BaseN {
		t.Fatal("SelOID out of base range")
	}
	// Keys at selected positions match SelKeys; others are -1.
	sel := map[OID]bool{}
	for i, o := range l.SelOIDs {
		if l.Key()[o] != l.SelKeys[i] {
			t.Fatalf("base key at %d = %d, want %d", o, l.Key()[o], l.SelKeys[i])
		}
		sel[o] = true
	}
	unselected := 0
	for o, k := range l.Key() {
		if !sel[OID(o)] {
			if k != -1 {
				t.Fatalf("unselected tuple %d has key %d", o, k)
			}
			unselected++
		}
	}
	if unselected != l.BaseN-1000 {
		t.Fatalf("%d unselected tuples, want %d", unselected, l.BaseN-1000)
	}
}

func TestDenseSelection(t *testing.T) {
	pr, err := GenPair(Params{N: 100, Omega: 2, HitRate: 1, SelLarger: 1, SelSmaller: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(pr.Larger.SelOIDs, bat.Dense(100)) {
		t.Fatal("s=1 must give dense oids")
	}
	if pr.Larger.BaseN != 100 {
		t.Fatalf("BaseN = %d", pr.Larger.BaseN)
	}
}

func TestPayloadColumns(t *testing.T) {
	pr, err := GenPair(Params{N: 50, Omega: 4, HitRate: 1, SelLarger: 1, SelSmaller: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	r := pr.Smaller
	c2 := r.PayloadCol(2)
	if len(c2) != r.BaseN {
		t.Fatalf("column length %d", len(c2))
	}
	for o, v := range c2 {
		if v != PayloadValue(OID(o), 2) {
			t.Fatalf("col2[%d] = %d", o, v)
		}
	}
	if &r.PayloadCol(2)[0] != &c2[0] {
		t.Fatal("PayloadCol must cache")
	}
	cols := r.ProjCols(3)
	if len(cols) != 3 {
		t.Fatalf("ProjCols returned %d", len(cols))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range payload column must panic")
		}
	}()
	r.PayloadCol(9)
}

func TestNSMImage(t *testing.T) {
	pr, err := GenPair(Params{N: 40, Omega: 3, HitRate: 1, SelLarger: 1, SelSmaller: 1, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	r := pr.Larger
	rel := r.NSM()
	if rel.Len() != r.BaseN || rel.Width != 3 {
		t.Fatalf("NSM %dx%d", rel.Len(), rel.Width)
	}
	for o := 0; o < rel.Len(); o++ {
		if rel.At(o, 0) != r.Key()[o] {
			t.Fatalf("NSM key at %d differs", o)
		}
		if rel.At(o, 2) != PayloadValue(OID(o), 2) {
			t.Fatalf("NSM payload at %d differs", o)
		}
	}
	if r.NSM() != rel {
		t.Fatal("NSM must cache")
	}
}

// The generated pair must survive the full cache-conscious join: the
// partitioned hash-join on selected oids/keys yields exactly
// ExpectedMatches pairs whose keys agree.
func TestGenPairThroughPartitionedJoin(t *testing.T) {
	pr, err := GenPair(Params{N: 2000, Omega: 2, HitRate: 3, SelLarger: 1, SelSmaller: 0.5, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	e := exec.NewEngine(nil, 0) // the serial paper engine
	defer e.Close()
	ix, err := e.PartitionedJoin(pr.Larger.SelOIDs, pr.Larger.SelKeys,
		pr.Smaller.SelOIDs, pr.Smaller.SelKeys, radix.Opts{Bits: 4})
	if err != nil {
		t.Fatal(err)
	}
	if ix.Len() != pr.ExpectedMatches {
		t.Fatalf("%d matches, want %d", ix.Len(), pr.ExpectedMatches)
	}
	for i := range ix.Larger {
		if pr.Larger.Key()[ix.Larger[i]] != pr.Smaller.Key()[ix.Smaller[i]] {
			t.Fatalf("pair %d keys disagree", i)
		}
	}
}

// §2.2: skewed key domains must still join correctly, and the hashed
// radix partitioning must stay balanced enough to be useful — the
// very reason Radix-Cluster hashes even integer keys.
func TestSkewedKeysJoinAndPartitionBalance(t *testing.T) {
	pr, err := GenPair(Params{N: 20000, Omega: 2, HitRate: 1, SelLarger: 1, SelSmaller: 1, Skew: 1.1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	// Skew sanity: the hottest larger-side key should be much more
	// frequent than under uniformity.
	counts := map[int32]int{}
	for _, k := range pr.Larger.SelKeys {
		counts[k]++
	}
	maxC := 0
	for _, c := range counts {
		if c > maxC {
			maxC = c
		}
	}
	if maxC < 50 { // uniform would give ~1-2 per key
		t.Fatalf("hottest key appears %d times; skew not applied", maxC)
	}
	// The join still produces exactly the expected matches.
	if got := actualMatches(t, pr); got != pr.ExpectedMatches {
		t.Fatalf("skewed join: %d matches, want %d", got, pr.ExpectedMatches)
	}
	// Hashed radix clustering spreads the skewed keys: no partition
	// should hold more than a few times its fair share... except the
	// hot key's partition, which is bounded by the hot key count.
	cl, err := radix.ClusterBUNsInto([2][]uint64{make([]uint64, len(pr.Larger.SelKeys))},
		pr.Larger.SelOIDs, pr.Larger.SelKeys, radix.Opts{Bits: 4})
	if err != nil {
		t.Fatal(err)
	}
	fair := 20000 / 16
	over := 0
	for p := 0; p+1 < len(cl.Offsets); p++ {
		if cl.Offsets[p+1]-cl.Offsets[p] > 3*fair+maxC {
			over++
		}
	}
	if over > 0 {
		t.Fatalf("%d partitions exceed 3x fair share + hot-key mass", over)
	}
}
