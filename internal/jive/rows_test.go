package jive_test

import (
	"math/rand/v2"
	"testing"

	"radixdecluster/internal/bat"
	"radixdecluster/internal/exec"
	"radixdecluster/internal/join"
	"radixdecluster/internal/mem"
	"radixdecluster/internal/nsm"
	"radixdecluster/internal/radix"
)

// The NSM Jive phases run on the serial engine — their kernels'
// one-chunk, one-group case — and are held to a multiset oracle: every
// join-index entry's projected fields appear as often as the entry.
func TestJiveRowsEndToEnd(t *testing.T) {
	const nJI, leftLen, rightLen = 400, 300, 200
	rng := rand.New(rand.NewPCG(4, 13))
	larger, smaller := make([]bat.OID, nJI), make([]bat.OID, nJI)
	for i := range larger {
		larger[i] = bat.OID(rng.IntN(leftLen))
		smaller[i] = bat.OID(rng.IntN(rightLen))
	}
	srt, err := radix.SortOIDPairs(larger, smaller, mem.Small())
	if err != nil {
		t.Fatal(err)
	}
	ji := &join.Index{Larger: srt.Key, Smaller: srt.Other}
	// left: records [id*2, id*2+1, junk]; right: [id*7, junk].
	left := nsm.New("L", leftLen, 3)
	for i := 0; i < leftLen; i++ {
		left.Set(i, 0, int32(i)*2)
		left.Set(i, 1, int32(i)*2+1)
		left.Set(i, 2, -1)
	}
	right := nsm.New("R", rightLen, 2)
	for i := 0; i < rightLen; i++ {
		right.Set(i, 0, int32(i)*7)
		right.Set(i, 1, -1)
	}
	e := exec.NewEngine(nil, 0)
	defer e.Close()
	lr, err := e.JiveLeft(ji, left, []int{0, 1}, rightLen, 3)
	if err != nil {
		t.Fatal(err)
	}
	rres, err := e.JiveRight(lr, right, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	type trip struct{ a, b, c int32 }
	want := map[trip]int{}
	for i := range ji.Larger {
		lo, ro := ji.Larger[i], ji.Smaller[i]
		want[trip{int32(lo) * 2, int32(lo)*2 + 1, int32(ro) * 7}]++
	}
	got := map[trip]int{}
	for i := 0; i < nJI; i++ {
		got[trip{lr.LeftRows.At(i, 0), lr.LeftRows.At(i, 1), rres.At(i, 0)}]++
	}
	for p, c := range want {
		if got[p] != c {
			t.Fatalf("row %v appears %d times, want %d", p, got[p], c)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%d distinct rows, want %d", len(got), len(want))
	}
}
