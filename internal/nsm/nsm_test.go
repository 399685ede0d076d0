package nsm

import (
	"testing"
	"testing/quick"
)

func testRel(t *testing.T) *Relation {
	t.Helper()
	r, err := FromColumns("t",
		[]int32{10, 11, 12, 13},
		[]int32{20, 21, 22, 23},
		[]int32{30, 31, 32, 33},
	)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestFromColumnsAndAccessors(t *testing.T) {
	r := testRel(t)
	if r.Len() != 4 || r.Width != 3 {
		t.Fatalf("Len=%d Width=%d", r.Len(), r.Width)
	}
	if r.At(2, 1) != 22 {
		t.Fatalf("At(2,1) = %d, want 22", r.At(2, 1))
	}
	r.Set(2, 1, 99)
	if r.At(2, 1) != 99 {
		t.Fatal("Set did not stick")
	}
	if r.TupleBytes() != 12 {
		t.Fatalf("TupleBytes = %d, want 12", r.TupleBytes())
	}
	if _, err := FromColumns("bad", []int32{1}, []int32{1, 2}); err == nil {
		t.Fatal("ragged columns not rejected")
	}
	if _, err := FromColumns("empty"); err == nil {
		t.Fatal("zero columns not rejected")
	}
}

func TestRecordIsView(t *testing.T) {
	r := testRel(t)
	rec := r.Record(1)
	rec[0] = -1
	if r.At(1, 0) != -1 {
		t.Fatal("Record must be a mutable view")
	}
}

func TestScanColumn(t *testing.T) {
	r := testRel(t)
	got := make([]int32, r.Len())
	r.ScanColumnInto(got, 2, 0, 2) // two chunks of one scan
	r.ScanColumnInto(got, 2, 2, r.Len())
	want := []int32{30, 31, 32, 33}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ScanColumnInto(2)[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestScanProject(t *testing.T) {
	r := testRel(t)
	p := New("p", r.Len(), 2)
	r.ScanProjectInto(p, 0, r.Len(), []int{2, 0})
	if p.At(3, 0) != 33 || p.At(3, 1) != 13 {
		t.Fatalf("record 3 = %v", p.Record(3))
	}
}

// gather is GatherProjectInto into a fresh relation of len(cols)-wide
// records.
func gather(t *testing.T, r *Relation, oids []uint32, cols []int) *Relation {
	t.Helper()
	g := New("g", len(oids), len(cols))
	if err := r.GatherProjectInto(g.Data, len(cols), 0, oids, cols); err != nil {
		t.Fatal(err)
	}
	return g
}

// A gather of every field copies whole records.
func TestGather(t *testing.T) {
	r := testRel(t)
	g := gather(t, r, []uint32{3, 1, 1}, []int{0, 1, 2})
	if g.At(0, 0) != 13 || g.At(1, 2) != 31 || g.At(2, 0) != 11 {
		t.Fatalf("gather wrong: %v", g.Data)
	}
}

func TestGatherProject(t *testing.T) {
	r := testRel(t)
	g := gather(t, r, []uint32{2, 0}, []int{1})
	if g.At(0, 0) != 22 || g.At(1, 0) != 20 {
		t.Fatalf("gather-project wrong: %v", g.Data)
	}
	// Into a wider record at a field offset, leaving the other fields.
	dst := []int32{-1, -1, -1, -1}
	if err := r.GatherProjectInto(dst, 2, 1, []uint32{3, 0}, []int{2}); err != nil {
		t.Fatal(err)
	}
	if dst[0] != -1 || dst[1] != 33 || dst[2] != -1 || dst[3] != 30 {
		t.Fatalf("strided gather-project wrong: %v", dst)
	}
	if err := r.GatherProjectInto(dst, 2, 2, []uint32{3, 0}, []int{2}); err == nil {
		t.Fatal("fields outside the record width not rejected")
	}
	if err := r.GatherProjectInto(dst[:3], 2, 1, []uint32{3, 0}, []int{2}); err == nil {
		t.Fatal("short dst not rejected")
	}
}

// A gather of one field materialises one attribute column.
func TestColumn(t *testing.T) {
	r := testRel(t)
	got := gather(t, r, []uint32{1, 3}, []int{0}).Data
	if got[0] != 11 || got[1] != 13 {
		t.Fatalf("Column = %v", got)
	}
}

func TestAppendFields(t *testing.T) {
	a, _ := FromColumns("a", []int32{1, 2})
	b, _ := FromColumns("b", []int32{10, 20}, []int32{100, 200})
	out := New("ab", 2, 3)
	AppendFieldsInto(out, a, b, 0, 1) // two chunks of one assembly
	AppendFieldsInto(out, a, b, 1, 2)
	rec := out.Record(1)
	if rec[0] != 2 || rec[1] != 20 || rec[2] != 200 {
		t.Fatalf("record 1 = %v", rec)
	}
	if rec := out.Record(0); rec[0] != 1 || rec[1] != 10 || rec[2] != 100 {
		t.Fatalf("record 0 = %v", rec)
	}
}

// Decompose/recompose round trip: FromColumns followed by
// ScanColumnInto must return the original columns for arbitrary data.
func TestRoundTripQuick(t *testing.T) {
	f := func(a, b []int32) bool {
		n := min(len(a), len(b))
		a, b = a[:n], b[:n]
		if n == 0 {
			return true
		}
		r, err := FromColumns("q", a, b)
		if err != nil {
			return false
		}
		ga, gb := make([]int32, n), make([]int32, n)
		r.ScanColumnInto(ga, 0, 0, n)
		r.ScanColumnInto(gb, 1, 0, n)
		for i := 0; i < n; i++ {
			if ga[i] != a[i] || gb[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
