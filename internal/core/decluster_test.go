package core

import (
	"math/rand/v2"
	"slices"
	"testing"
	"testing/quick"

	"radixdecluster/internal/bat"
	"radixdecluster/internal/mem"
	"radixdecluster/internal/radix"
)

// paperExample is a Figure-5-shaped instance: the CLUST_VALUES column
// e f g f h e in two clusters, with a CLUST_RESULT permutation that is
// ascending within each cluster (§3.2 property 2) and dense overall
// (property 1), plus the expected result column.
func paperExample() (values []byte, ids []OID, borders []bat.Border, want []byte) {
	values = []byte{'e', 'f', 'g', 'f', 'h', 'e'}
	ids = []OID{1, 2, 4, 0, 3, 5}
	borders = []bat.Border{{Start: 0, End: 3}, {Start: 3, End: 6}}
	want = make([]byte, 6)
	for i, id := range ids {
		want[id] = values[i]
	}
	return
}

func TestDeclusterPaperExample(t *testing.T) {
	values, ids, borders, want := paperExample()
	for _, window := range []int{1, 2, 3, 6, 100} {
		got, err := Decluster(values, ids, borders, window)
		if err != nil {
			t.Fatalf("window %d: %v", window, err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("window %d: got %q, want %q", window, got, want)
			}
		}
	}
}

func TestDeclusterErrors(t *testing.T) {
	values, ids, borders, _ := paperExample()
	if _, err := Decluster(values[:4], ids, borders, 2); err == nil {
		t.Fatal("length mismatch not rejected")
	}
	if _, err := Decluster(values, ids, borders, 0); err == nil {
		t.Fatal("zero window not rejected")
	}
	if _, err := Decluster(values, ids, borders[:1], 2); err == nil {
		t.Fatal("borders not covering input not rejected")
	}
	bad := []OID{1, 2, 4, 0, 99, 5}
	if _, err := Decluster(values, bad, borders, 2); err == nil {
		t.Fatal("out-of-range id not rejected")
	}
}

func TestDeclusterEmpty(t *testing.T) {
	got, err := Decluster([]int32{}, nil, nil, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("got %v", got)
	}
}

func TestDeclusterSingleCluster(t *testing.T) {
	// One cluster with fully sorted ids degenerates to a copy.
	values := []int32{10, 20, 30, 40}
	ids := []OID{0, 1, 2, 3}
	borders := []bat.Border{{Start: 0, End: 4}}
	got, err := Decluster(values, ids, borders, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range values {
		if got[i] != v {
			t.Fatalf("got %v", got)
		}
	}
}

func TestDeclusterWithEmptyClusters(t *testing.T) {
	values := []int32{5, 6}
	ids := []OID{1, 0}
	borders := []bat.Border{
		{Start: 0, End: 0}, {Start: 0, End: 1}, {Start: 1, End: 1},
		{Start: 1, End: 2}, {Start: 2, End: 2},
	}
	got, err := Decluster(values, ids, borders, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 6 || got[1] != 5 {
		t.Fatalf("got %v", got)
	}
}

// declusterInput builds a random valid Radix-Decluster input: a value
// column in clustered order with within-cluster-ascending permutation
// ids, via ClusterForDecluster on shuffled smaller-oids.
func declusterInput(n, bits int, seed uint64) (vals []int32, cl *Clustered) {
	rng := rand.New(rand.NewPCG(seed, 17))
	smaller := make([]OID, n)
	for i := range smaller {
		smaller[i] = OID(rng.IntN(n)) // duplicates allowed: many-to-one joins
	}
	cl, err := ClusterForDecluster(smaller, radix.Opts{Bits: bits, Ignore: radix.IgnoreBits(n, bits)})
	if err != nil {
		panic(err)
	}
	// Fetch "values" with the clustered oids: value = 7*oid (checkable).
	vals = make([]int32, n)
	for i, o := range cl.SmallerOIDs {
		vals[i] = int32(o) * 7
	}
	return vals, cl
}

func TestDeclusterRandomised(t *testing.T) {
	for _, n := range []int{1, 2, 100, 1000, 4096} {
		for _, bits := range []int{0, 1, 3, 5} {
			vals, cl := declusterInput(n, bits, uint64(n*10+bits))
			if err := cl.Validate(); err != nil {
				t.Fatalf("n=%d bits=%d: invalid clustering: %v", n, bits, err)
			}
			for _, window := range []int{1, 32, 256, n + 1} {
				got, err := Decluster(vals, cl.ResultPos, cl.Borders, window)
				if err != nil {
					t.Fatalf("n=%d bits=%d window=%d: %v", n, bits, window, err)
				}
				// The value at result position p must be 7 * smallerOID(p),
				// where smallerOID(p) is recoverable via the permutation.
				for i, pos := range cl.ResultPos {
					if got[pos] != vals[i] {
						t.Fatalf("n=%d bits=%d window=%d: result[%d] = %d, want %d", n, bits, window, pos, got[pos], vals[i])
					}
				}
			}
		}
	}
}

func TestDeclusterMatchesScatterQuick(t *testing.T) {
	f := func(seed uint64, bits8, win8 uint8) bool {
		n := 513
		bits := int(bits8 % 7)
		window := int(win8)%n + 1
		vals, cl := declusterInput(n, bits, seed)
		got, err := Decluster(vals, cl.ResultPos, cl.Borders, window)
		if err != nil {
			return false
		}
		want, err := ScatterDecluster(vals, cl.ResultPos)
		if err != nil {
			return false
		}
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestMergeDecluster(t *testing.T) {
	values, ids, borders, want := paperExample()
	got, err := MergeDecluster(values, ids, borders)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %q, want %q", got, want)
		}
	}
	// Merge requires a dense permutation; a gap must be reported.
	if _, err := MergeDecluster(values, []OID{1, 2, 4, 0, 3, 3}, borders); err == nil {
		t.Fatal("non-permutation not rejected")
	}
}

func TestMergeDeclusterRandomised(t *testing.T) {
	vals, cl := declusterInput(2048, 4, 42)
	got, err := MergeDecluster(vals, cl.ResultPos, cl.Borders)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := ScatterDecluster(vals, cl.ResultPos)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("merge and scatter disagree at %d", i)
		}
	}
}

func TestDeclusterFunc(t *testing.T) {
	vals, cl := declusterInput(300, 2, 5)
	got := make([]int32, 300)
	err := DeclusterFunc(cl.ResultPos, cl.Borders, 32, func(pos OID, src int) {
		got[pos] = vals[src]
	})
	if err != nil {
		t.Fatal(err)
	}
	want, _ := ScatterDecluster(vals, cl.ResultPos)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("DeclusterFunc differs at %d", i)
		}
	}
}

// DeclusterFunc must visit result positions monotonically within each
// window and never revisit: windows slide forward.
func TestDeclusterFuncWindowDiscipline(t *testing.T) {
	_, cl := declusterInput(1000, 4, 21)
	const window = 100
	lastWindow := -1
	err := DeclusterFunc(cl.ResultPos, cl.Borders, window, func(pos OID, src int) {
		w := int(pos) / window
		if w < lastWindow {
			t.Fatalf("position %d written after window %d completed", pos, lastWindow)
		}
		lastWindow = w
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPlanWindow(t *testing.T) {
	h := mem.Pentium4()
	// Figure 6: CACHESIZE / (2*sizeof) = 512KB / 8 = 64K tuples.
	if got := PlanWindow(h, 4); got != 64<<10 {
		t.Fatalf("PlanWindow = %d, want %d", got, 64<<10)
	}
	if got := PlanWindow(h, 0); got != 64<<10 {
		t.Fatalf("PlanWindow with zero width = %d", got)
	}
	if PlanWindow(mem.Small(), 1<<20) != 1 {
		t.Fatal("window must clamp to 1 tuple")
	}
}

func TestMaxBitsForWindow(t *testing.T) {
	if got := MaxBitsForWindow(64 << 10); got != 11 {
		t.Fatalf("MaxBitsForWindow(64K) = %d, want 11 (2^11 clusters * 32 = 64K)", got)
	}
	if got := MaxBitsForWindow(31); got != 0 {
		t.Fatalf("MaxBitsForWindow(31) = %d, want 0", got)
	}
}

func TestScalabilityLimit(t *testing.T) {
	// §6: 512KB cache, 4-byte values → half a billion tuples.
	got := ScalabilityLimit(mem.Pentium4(), 4)
	if got != 512*1024*1024 {
		t.Fatalf("ScalabilityLimit = %d, want %d", got, 512*1024*1024)
	}
}

func TestClusteredValidateCatchesCorruption(t *testing.T) {
	_, cl := declusterInput(256, 3, 2)
	if err := cl.Validate(); err != nil {
		t.Fatal(err)
	}
	cl.ResultPos[0], cl.ResultPos[1] = cl.ResultPos[1], cl.ResultPos[0]
	// Swapping two adjacent positions inside a cluster breaks the
	// within-cluster ordering (property 2) with high probability; if
	// both land in the same cluster ascending order is violated.
	if err := cl.Validate(); err == nil {
		t.Skip("swap happened to preserve order")
	}
	dup := make([]OID, len(cl.ResultPos))
	copy(dup, cl.ResultPos)
	dup[0] = dup[1]
	bad := &Clustered{SmallerOIDs: cl.SmallerOIDs, ResultPos: dup, Borders: cl.Borders}
	if err := bad.Validate(); err == nil {
		t.Fatal("duplicate result position not rejected")
	}
}

// Whole width-3 records into a buffer of the same width: the NSM
// record move, same permutation logic as Decluster.
func TestDeclusterRows(t *testing.T) {
	_, cl := declusterInput(512, 3, 9)
	const w = 3
	rows := make([]int32, 512*w)
	for i, o := range cl.SmallerOIDs {
		for j := 0; j < w; j++ {
			rows[i*w+j] = int32(o)*10 + int32(j)
		}
	}
	got := make([]int32, len(rows))
	if err := CheckDeclusterRows(got, w, 0, rows, w, cl.ResultPos, cl.Borders, 64); err != nil {
		t.Fatal(err)
	}
	if err := DeclusterRowsKernel(got, w, 0, rows, w, cl.ResultPos, cl.Borders, 64, make([]int, 2*len(cl.Borders))); err != nil {
		t.Fatal(err)
	}
	for i, pos := range cl.ResultPos {
		for j := 0; j < w; j++ {
			if got[int(pos)*w+j] != rows[i*w+j] {
				t.Fatalf("row at result pos %d field %d = %d, want %d", pos, j, got[int(pos)*w+j], rows[i*w+j])
			}
		}
	}
	if err := CheckDeclusterRows(got, w, 0, rows[:10], w, cl.ResultPos, cl.Borders, 64); err == nil {
		t.Fatal("ragged rows not rejected")
	}
	if err := CheckDeclusterRows(got, w, 0, rows, 0, cl.ResultPos, cl.Borders, 64); err == nil {
		t.Fatal("zero width not rejected")
	}
}

func TestDeclusterRowsInto(t *testing.T) {
	// Two fields into width-5 records at offset 3.
	_, cl := declusterInput(256, 3, 13)
	const w, outW, outOff = 2, 5, 3
	rows := make([]int32, 256*w)
	for i, o := range cl.SmallerOIDs {
		rows[i*w] = int32(o)
		rows[i*w+1] = int32(o) + 1
	}
	out := make([]int32, 256*outW)
	if err := CheckDeclusterRows(out, outW, outOff, rows, w, cl.ResultPos, cl.Borders, 32); err != nil {
		t.Fatal(err)
	}
	// A dirty cursor array serves: the kernel opens every cursor.
	cur := slices.Repeat([]int{-1}, 2*len(cl.Borders))
	if err := DeclusterRowsKernel(out, outW, outOff, rows, w, cl.ResultPos, cl.Borders, 32, cur); err != nil {
		t.Fatal(err)
	}
	for i, pos := range cl.ResultPos {
		if out[int(pos)*outW+outOff] != rows[i*w] || out[int(pos)*outW+outOff+1] != rows[i*w+1] {
			t.Fatalf("row at result pos %d not placed at offset %d", pos, outOff)
		}
	}
	// Untouched fields stay zero.
	for i := 0; i < 256; i++ {
		for j := 0; j < outOff; j++ {
			if out[i*outW+j] != 0 {
				t.Fatalf("field (%d,%d) clobbered", i, j)
			}
		}
	}
	if err := CheckDeclusterRows(out, outW, 4, rows, w, cl.ResultPos, cl.Borders, 32); err == nil {
		t.Fatal("fields outside record width not rejected")
	}
	if err := CheckDeclusterRows(out[:10], outW, 0, rows, w, cl.ResultPos, cl.Borders, 32); err == nil {
		t.Fatal("short output not rejected")
	}
	if err := CheckDeclusterRows(out, outW, 0, rows[:6], w, cl.ResultPos, cl.Borders, 32); err == nil {
		t.Fatal("record/id count mismatch not rejected")
	}
	if err := CheckDeclusterRows(out, outW, 0, rows[:5], w, cl.ResultPos, cl.Borders, 32); err == nil {
		t.Fatal("ragged rows not rejected")
	}
	if err := CheckDeclusterRows(out, outW, 0, rows, 0, cl.ResultPos, cl.Borders, 32); err == nil {
		t.Fatal("zero width not rejected")
	}
	if err := CheckDeclusterRows(out, outW, 0, rows, w, cl.ResultPos, cl.Borders, 0); err == nil {
		t.Fatal("zero window not rejected")
	}
	if err := CheckDeclusterRows(out, outW, 0, rows, w, cl.ResultPos, cl.Borders[1:], 32); err == nil {
		t.Fatal("borders not covering the input not rejected")
	}
}
