package bat

import (
	"math/rand/v2"
	"sync"
	"testing"
	"testing/quick"
)

func TestColumnBasics(t *testing.T) {
	c := NewColumn("a", []int32{10, 20, 30})
	if c.Len() != 3 {
		t.Fatalf("Len = %d, want 3", c.Len())
	}
	if got := c.Values[1]; got != 20 {
		t.Fatalf("Values[1] = %d, want 20", got)
	}
}

// ascending reports whether oids are 0,1,...,len-1.
func ascending(oids []OID) bool {
	for i, o := range oids {
		if o != OID(i) {
			return false
		}
	}
	return true
}

// Dense views must read 0..n-1 at every size, survive the slab growing
// under them, be capped so appends cannot reach the slab, and be safe
// to take from many goroutines at once.
func TestDense(t *testing.T) {
	if got := Dense(0); len(got) != 0 {
		t.Fatalf("Dense(0) has %d oids", len(got))
	}
	small := Dense(5)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, n := range []int{1, 1000, 1 << 12, 1<<16 + g} {
				v := Dense(n)
				if len(v) != n || cap(v) != n || !ascending(v) {
					t.Errorf("Dense(%d): len %d cap %d dense %v", n, len(v), cap(v), ascending(v))
				}
			}
		}()
	}
	wg.Wait()
	if !ascending(small) || len(small) != 5 {
		t.Fatalf("a view taken before the slab grew reads %v", small)
	}
	grown := append(small, 99)
	if big := Dense(6); big[5] != 5 || &grown[0] == &small[0] {
		t.Fatal("append to a view wrote into the shared slab")
	}
}

func TestIsPermutation(t *testing.T) {
	if !IsPermutation([]OID{2, 0, 1}) {
		t.Fatal("2,0,1 is a permutation")
	}
	if IsPermutation([]OID{0, 0, 1}) {
		t.Fatal("duplicate should fail")
	}
	if IsPermutation([]OID{0, 3}) {
		t.Fatal("out of range should fail")
	}
	if !IsPermutation(nil) {
		t.Fatal("empty is a permutation")
	}
}

func TestIsPermutationQuick(t *testing.T) {
	// Shuffles of [0,n) are always permutations.
	f := func(n uint8) bool {
		oids := make([]OID, int(n))
		for i := range oids {
			oids[i] = OID(i)
		}
		rand.Shuffle(len(oids), func(i, j int) { oids[i], oids[j] = oids[j], oids[i] })
		return IsPermutation(oids)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSortedWithin(t *testing.T) {
	oids := []OID{1, 3, 5, 0, 2, 4}
	borders := []Border{{0, 3}, {3, 6}}
	if !SortedWithin(oids, borders) {
		t.Fatal("each half is sorted")
	}
	if SortedWithin(oids, []Border{{0, 6}}) {
		t.Fatal("whole column is not sorted")
	}
}

func TestValidateBorders(t *testing.T) {
	good := []Border{{0, 2}, {2, 2}, {2, 5}}
	if err := ValidateBorders(good, 5); err != nil {
		t.Fatalf("valid borders rejected: %v", err)
	}
	if err := ValidateBorders([]Border{{0, 2}, {3, 5}}, 5); err == nil {
		t.Fatal("gap not detected")
	}
	if err := ValidateBorders([]Border{{0, 2}}, 5); err == nil {
		t.Fatal("short coverage not detected")
	}
	if err := ValidateBorders([]Border{{0, 3}, {3, 2}}, 2); err == nil {
		t.Fatal("negative-size border not detected")
	}
}

func TestBordersFromOffsets(t *testing.T) {
	b := BordersFromOffsets([]int{0, 2, 2, 7})
	want := []Border{{0, 2}, {2, 2}, {2, 7}}
	if len(b) != len(want) {
		t.Fatalf("got %d borders, want %d", len(b), len(want))
	}
	for i := range b {
		if b[i] != want[i] {
			t.Fatalf("border %d = %v, want %v", i, b[i], want[i])
		}
	}
	if BordersFromOffsets(nil) != nil {
		t.Fatal("empty offsets should give nil borders")
	}
}

func TestVarColumn(t *testing.T) {
	c := NewVarColumn("s", []string{"fast", "", "hashing", "great"})
	if c.Len() != 4 {
		t.Fatalf("Len = %d, want 4", c.Len())
	}
	if got := string(c.At(0)); got != "fast" {
		t.Fatalf("At(0) = %q", got)
	}
	if got := string(c.At(1)); got != "" {
		t.Fatalf("At(1) = %q, want empty", got)
	}
	if got := c.Size(2); got != len("hashing") {
		t.Fatalf("Size(2) = %d", got)
	}
	if got := string(c.At(3)); got != "great" {
		t.Fatalf("At(3) = %q", got)
	}
}

func TestTable(t *testing.T) {
	a := NewColumn("a", []int32{1, 2})
	b := NewColumn("b", []int32{3, 4})
	tb, err := NewTable("t", a, b)
	if err != nil {
		t.Fatal(err)
	}
	if tb.Len() != 2 || tb.Width() != 2 {
		t.Fatalf("Len=%d Width=%d", tb.Len(), tb.Width())
	}
	if c, err := tb.Column("b"); err != nil || c != b {
		t.Fatalf("Column(b) = %v, %v", c, err)
	}
	if _, err := tb.Column("zz"); err == nil {
		t.Fatal("missing column not detected")
	}
	if _, err := NewTable("bad", a, NewColumn("c", []int32{1})); err == nil {
		t.Fatal("ragged table not detected")
	}
	if _, err := NewTable("empty"); err == nil {
		t.Fatal("empty table not detected")
	}
}
