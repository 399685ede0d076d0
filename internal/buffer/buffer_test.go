package buffer

import (
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"strings"
	"testing"

	"radixdecluster/internal/bat"
	"radixdecluster/internal/core"
	"radixdecluster/internal/radix"
)

// clusteredStrings builds a variable-width CLUST_VALUES column plus
// matching CLUST_RESULT/borders: the string for result position p is
// "val-p-<padding>", arriving in clustered order.
func clusteredStrings(n, bits int, seed uint64) (*bat.VarColumn, *core.Clustered) {
	rng := rand.New(rand.NewPCG(seed, 0))
	smaller := make([]OID, n)
	for i := range smaller {
		smaller[i] = OID(rng.IntN(n))
	}
	cl, err := core.ClusterForDecluster(smaller, radix.Opts{Bits: bits, Ignore: radix.IgnoreBits(n, bits)})
	if err != nil {
		panic(err)
	}
	// Build values in clustered order: the tuple at clustered slot i
	// belongs at result position cl.ResultPos[i]; give it a string
	// derived from that position with variable padding.
	vals := make([]string, n)
	for i, pos := range cl.ResultPos {
		vals[i] = varString(int(pos))
	}
	return bat.NewVarColumn("s", vals), cl
}

func varString(pos int) string {
	return fmt.Sprintf("val-%d-%s", pos, strings.Repeat("x", pos%23))
}

func TestDeclusterVarsizeRoundTrip(t *testing.T) {
	const n = 2000
	col, cl := clusteredStrings(n, 4, 1)
	pool, err := DeclusterVarsize(col, cl.ResultPos, cl.Borders, 128, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if pool.NumRecords() != n {
		t.Fatalf("NumRecords = %d", pool.NumRecords())
	}
	if pool.NumPages() < 2 {
		t.Fatalf("expected multiple pages, got %d", pool.NumPages())
	}
	for i := 0; i < n; i++ {
		b, err := pool.Record(i)
		if err != nil {
			t.Fatal(err)
		}
		if string(b) != varString(i) {
			t.Fatalf("record %d = %q, want %q", i, b, varString(i))
		}
	}
}

func TestDeclusterVarsizeSmallWindows(t *testing.T) {
	const n = 300
	col, cl := clusteredStrings(n, 2, 2)
	for _, window := range []int{1, 7, 64, n + 1} {
		pool, err := DeclusterVarsize(col, cl.ResultPos, cl.Borders, window, 1024)
		if err != nil {
			t.Fatalf("window %d: %v", window, err)
		}
		for i := 0; i < n; i += 37 {
			b, _ := pool.Record(i)
			if string(b) != varString(i) {
				t.Fatalf("window %d: record %d = %q", window, i, b)
			}
		}
	}
}

func TestDeclusterVarsizeErrors(t *testing.T) {
	col, cl := clusteredStrings(50, 2, 3)
	if _, err := DeclusterVarsize(col, cl.ResultPos[:10], cl.Borders, 8, 512); err == nil {
		t.Fatal("id length mismatch not rejected")
	}
	if _, err := DeclusterVarsize(col, cl.ResultPos, cl.Borders, 8, 4); err == nil {
		t.Fatal("tiny page not rejected")
	}
	// A record larger than a page must be reported.
	big := bat.NewVarColumn("big", []string{strings.Repeat("y", 600)})
	oneID := []OID{0}
	oneBorder := []bat.Border{{Start: 0, End: 1}}
	if _, err := DeclusterVarsize(big, oneID, oneBorder, 8, 512); err == nil {
		t.Fatal("oversized record not rejected")
	}
}

func TestDeclusterVarsizeEmptyStrings(t *testing.T) {
	vals := []string{"", "a", "", "bc"}
	col := bat.NewVarColumn("v", vals)
	ids := []OID{0, 1, 2, 3}
	borders := []bat.Border{{Start: 0, End: 4}}
	pool, err := DeclusterVarsize(col, ids, borders, 2, 256)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range vals {
		b, err := pool.Record(i)
		if err != nil {
			t.Fatal(err)
		}
		if string(b) != want {
			t.Fatalf("record %d = %q, want %q", i, b, want)
		}
	}
}

func TestDeclusterFixedRoundTrip(t *testing.T) {
	const n = 1500
	_, cl := clusteredStrings(n, 3, 5)
	vals := make([]int32, n)
	for i, pos := range cl.ResultPos {
		vals[i] = int32(pos) * 3
	}
	pool, err := DeclusterFixed(vals, cl.ResultPos, cl.Borders, 128, 1024)
	if err != nil {
		t.Fatal(err)
	}
	if pool.NumRecords() != n {
		t.Fatalf("NumRecords = %d", pool.NumRecords())
	}
	for i := 0; i < n; i++ {
		rec, err := pool.Record(i)
		if err != nil {
			t.Fatal(err)
		}
		if v := int32(binary.LittleEndian.Uint32(rec)); len(rec) != 4 || v != int32(i)*3 {
			t.Fatalf("record %d = %d (%d bytes), want %d", i, v, len(rec), i*3)
		}
	}
}

func TestRecordOutOfRange(t *testing.T) {
	_, cl := clusteredStrings(10, 1, 6)
	vals := make([]int32, 10)
	pool, err := DeclusterFixed(vals, cl.ResultPos, cl.Borders, 4, 256)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pool.Record(10); err == nil {
		t.Fatal("out-of-range record not rejected")
	}
	if _, err := pool.Record(-1); err == nil {
		t.Fatal("negative record not rejected")
	}
}
