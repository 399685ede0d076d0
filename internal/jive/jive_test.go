package jive

import (
	"math/rand/v2"
	"testing"

	"radixdecluster/internal/join"
	"radixdecluster/internal/mem"
	"radixdecluster/internal/radix"
)

// buildSortedJI makes a join-index sorted on the larger oids, with
// random smaller oids in [0,rightLen).
func buildSortedJI(n, leftLen, rightLen int, seed uint64) *join.Index {
	rng := rand.New(rand.NewPCG(seed, 13))
	larger := make([]OID, n)
	smaller := make([]OID, n)
	for i := range larger {
		larger[i] = OID(rng.IntN(leftLen))
		smaller[i] = OID(rng.IntN(rightLen))
	}
	srt, err := radix.SortOIDPairs(larger, smaller, mem.Small())
	if err != nil {
		panic(err)
	}
	return &join.Index{Larger: srt.Key, Smaller: srt.Other}
}

func TestJiveColumnsEndToEnd(t *testing.T) {
	const nJI, leftLen, rightLen = 800, 600, 500
	ji := buildSortedJI(nJI, leftLen, rightLen, 3)
	leftCol := make([]int32, leftLen)
	for i := range leftCol {
		leftCol[i] = int32(i) * 2
	}
	rightCol := make([]int32, rightLen)
	for i := range rightCol {
		rightCol[i] = int32(i)*5 + 1
	}
	for _, bits := range []int{0, 1, 3, 5} {
		lr, err := Left(ji, [][]int32{leftCol}, rightLen, bits)
		if err != nil {
			t.Fatalf("bits=%d: %v", bits, err)
		}
		rcols, err := Right(lr, [][]int32{rightCol})
		if err != nil {
			t.Fatalf("bits=%d: %v", bits, err)
		}
		// Every result row must correspond to exactly one join-index
		// entry, and carry matching left and right values: left = 2*lo
		// and right = 5*ro+1 for the pair (lo,ro).
		type pair struct{ l, r int32 }
		want := map[pair]int{}
		for i := range ji.Larger {
			want[pair{leftCol[ji.Larger[i]], rightCol[ji.Smaller[i]]}]++
		}
		got := map[pair]int{}
		for i := 0; i < nJI; i++ {
			got[pair{lr.LeftCols[0][i], rcols[0][i]}]++
		}
		if len(got) != len(want) {
			t.Fatalf("bits=%d: %d distinct rows, want %d", bits, len(got), len(want))
		}
		for p, c := range want {
			if got[p] != c {
				t.Fatalf("bits=%d: row %v appears %d times, want %d", bits, p, got[p], c)
			}
		}
		// Result order is cluster-major: right oids grouped by their
		// top bits.
		for c := 0; c+1 < len(lr.Borders); c++ {
			b := lr.Borders[c]
			for i := b.Start; i < b.End; i++ {
				if int(lr.RightOIDs[i]>>lr.shift) != c {
					t.Fatalf("bits=%d: oid %d in cluster %d", bits, lr.RightOIDs[i], c)
				}
			}
		}
	}
}

func TestJiveLeftPreservesLeftOrderWithinCluster(t *testing.T) {
	const rightLen = 256
	ji := buildSortedJI(500, 400, rightLen, 9)
	lr, err := Left(ji, nil, rightLen, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Within a cluster the right phase relies on ResultPos being the
	// cluster slot itself (cluster-major result numbering).
	for i, p := range lr.ResultPos {
		if int(p) != i {
			t.Fatalf("ResultPos[%d] = %d", i, p)
		}
	}
}

func TestJiveErrors(t *testing.T) {
	ji := &join.Index{Larger: []OID{0}, Smaller: []OID{9}}
	if _, err := Left(ji, nil, 4, 1); err == nil {
		t.Fatal("right oid outside table not rejected")
	}
	if _, err := Left(ji, nil, 16, -1); err == nil {
		t.Fatal("negative bits not rejected")
	}
	ji2 := &join.Index{Larger: []OID{5}, Smaller: []OID{0}}
	if _, err := Left(ji2, [][]int32{{1, 2}}, 4, 1); err == nil {
		t.Fatal("left oid outside column not rejected")
	}
	lrOK, err := Left(&join.Index{Larger: []OID{0}, Smaller: []OID{3}}, nil, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Right(lrOK, [][]int32{{1}}); err == nil {
		t.Fatal("right oid outside column not rejected in Right")
	}
}

func TestClusterShift(t *testing.T) {
	// 1024-tuple table, 3 bits → shift 7 (top 3 of 10 significant bits).
	if s := ClusterShift(1024, 3); s != 7 {
		t.Fatalf("ClusterShift(1024,3) = %d, want 7", s)
	}
	// More bits than significant: everything in distinct clusters.
	if s := ClusterShift(4, 10); s != 0 {
		t.Fatalf("ClusterShift(4,10) = %d, want 0", s)
	}
}
