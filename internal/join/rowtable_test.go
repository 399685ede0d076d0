package join

import (
	"math/rand"
	"slices"
	"testing"
)

// BuildRowsTable into dirty caller arrays must produce the table
// buildRowTable builds into fresh ones — same bucket heads, same chain
// links — so probes emit duplicate matches in exactly the serial order.
func TestBuildRowsTableDirtyBuffersMatchFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const n, w, key = 5000, 3, 1
	rows := make([]int32, n*w)
	for i := 0; i < n; i++ {
		rows[i*w] = int32(i)
		rows[i*w+key] = int32(rng.Intn(n / 4)) // duplicate keys: chain order matters
		rows[i*w+2] = int32(rng.Int31())
	}
	want := buildRowTable(rows, w, key, 0)
	dirty := func(n int) []int32 {
		s := make([]int32, n)
		for i := range s {
			s[i] = int32(rng.Int31())
		}
		return s
	}
	for _, bufs := range []struct {
		name        string
		first, next []int32
	}{
		{"exact", dirty(NumBuckets(n)), dirty(n)},
		{"oversized", dirty(2 * NumBuckets(n)), dirty(2 * n)},
	} {
		got, err := BuildRowsTable(rows, w, key, 0, bufs.first, bufs.next)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got.first, want.first) || !slices.Equal(got.next, want.next) {
			t.Fatalf("%s buffers: table differs from a fresh build", bufs.name)
		}
		probe := make([]int32, 2*w)
		probe[0*w+key] = rows[key] // key of row 0
		probe[1*w+key] = -1        // no match
		wantOut, wantN := want.ProbeRows(probe, w, key, nil)
		gotOut, gotN := got.ProbeRows(probe, w, key, nil)
		if !slices.Equal(gotOut, wantOut) || gotN != wantN {
			t.Fatalf("%s buffers: probe output differs", bufs.name)
		}
	}
	if _, err := BuildRowsTable(rows[:n*w-1], w, key, 0, dirty(NumBuckets(n)), dirty(n)); err == nil {
		t.Fatal("ragged rows not rejected")
	}
	if _, err := BuildRowsTable(rows, w, w, 0, dirty(NumBuckets(n)), dirty(n)); err == nil {
		t.Fatal("key column outside the record not rejected")
	}
}
