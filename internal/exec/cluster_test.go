package exec

import (
	"fmt"
	"runtime/debug"
	"slices"
	"sort"
	"testing"

	"radixdecluster/internal/hash"
	"radixdecluster/internal/mem"
	"radixdecluster/internal/radix"
)

// stableOrder is the pass driver's oracle: the input positions sorted
// stably by radix field, and the fields in that order.
func stableOrder(field func(i int) uint32, n int) (perm []int, fields []uint32) {
	perm = make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	sort.SliceStable(perm, func(a, b int) bool { return field(perm[a]) < field(perm[b]) })
	fields = make([]uint32, n)
	for d, i := range perm {
		fields[d] = field(i)
	}
	return perm, fields
}

// checkOffsets holds 2^bits+1 cluster offsets to the oracle's sorted
// fields: cluster c starts at the number of tuples whose field is below
// c. It walks the clusters once, so a 2^25-cluster check needs no
// second offsets array.
func checkOffsets(t *testing.T, what string, offsets []int, fields []uint32, bits int) {
	t.Helper()
	if len(offsets) != 1<<bits+1 {
		t.Fatalf("%s: %d offsets, want %d", what, len(offsets), 1<<bits+1)
	}
	i := 0
	for c := range offsets {
		for i < len(fields) && int(fields[i]) < c {
			i++
		}
		if offsets[c] != i {
			t.Fatalf("%s: cluster %d starts at %d, want %d", what, c, offsets[c], i)
		}
	}
}

// TestPassDriverMatchesStableSort holds the one Radix-Cluster pass
// driver, as both engines run it, to a stable sort on the radix field:
// the serial engine on the plan's passes, and a 2-worker runtime on its
// own split (a first pass of at most maxFirstPassBits, then passes of
// at most as many), for BUNs, oid pairs and rows. The widths cover
// B = 0 (a copy), one pass, the Pentium 4 multi-pass split, a two-pass
// runtime split (B > 12) and B > 24 (three runtime passes; 2^25+1
// offsets, so not under the race detector).
func TestPassDriverMatchesStableSort(t *testing.T) {
	const n = 2 * MinParallelN
	p4 := radix.MaxBitsPerPass(mem.Pentium4())
	widths := []radix.Opts{
		{Bits: 0},
		{Bits: 8, Ignore: 3},
		{Bits: 11, Passes: radix.SplitBits(11, p4)},
		{Bits: 16, Ignore: 2},
	}
	if !raceEnabled {
		widths = append(widths, radix.Opts{Bits: 25, Ignore: 1, Passes: radix.SplitBits(25, p4)})
	}
	keys, oids, vals := randOIDs(71, n, 1<<31), randOIDs(72, n, n), randVals(73, n, true)
	const width, keyCol = 3, 1
	rows := randRows(74, n, width, true)
	rt := testRuntime(t)
	for _, o := range widths {
		mask := uint32(1)<<o.Bits - 1
		field := func(v uint32) uint32 { return v >> o.Ignore & mask }
		bunPerm, bunFields := stableOrder(func(i int) uint32 { return field(hash.Int32(vals[i])) }, n)
		pairPerm, pairFields := stableOrder(func(i int) uint32 { return field(uint32(keys[i])) }, n)
		rowPerm, rowFields := stableOrder(func(i int) uint32 { return field(hash.Int32(rows[i*width+keyCol])) }, n)
		for _, workers := range []int{0, 2} {
			// One engine per clustering: past 24 bits each result holds
			// 2^25+1 offsets, released with its engine.
			for kind, run := range []func(e *Engine, what string){
				func(e *Engine, what string) {
					b, err := e.ClusterBUNs(oids, vals, o)
					if err != nil {
						t.Fatal(err)
					}
					for d, i := range bunPerm {
						if b.BUNs[d] != radix.BUN(hash.Int32(vals[i]), uint32(oids[i])) {
							t.Fatalf("%s: BUN %d is not input tuple %d", what, d, i)
						}
					}
					checkOffsets(t, what, b.Offsets, bunFields, o.Bits)
				},
				func(e *Engine, what string) {
					pr, err := e.ClusterOIDPairs(keys, oids, o)
					if err != nil {
						t.Fatal(err)
					}
					for d, i := range pairPerm {
						if pr.Key[d] != keys[i] || pr.Other[d] != oids[i] {
							t.Fatalf("%s: pair %d is not input tuple %d", what, d, i)
						}
					}
					checkOffsets(t, what, pr.Offsets, pairFields, o.Bits)
				},
				func(e *Engine, what string) {
					rr, err := e.ClusterRows(rows, width, keyCol, o)
					if err != nil {
						t.Fatal(err)
					}
					for d, i := range rowPerm {
						if !slices.Equal(rr.Rows[d*width:(d+1)*width], rows[i*width:(i+1)*width]) {
							t.Fatalf("%s: record %d is not input record %d", what, d, i)
						}
					}
					checkOffsets(t, what, rr.Offsets, rowFields, o.Bits)
				},
			} {
				e := NewEngine(rt, workers)
				what := fmt.Sprintf("%s B=%d passes=%v nominal %d", []string{"BUNs", "pairs", "rows"}[kind], o.Bits, o.Passes, workers)
				run(e, what)
				if ran := e.sched.stats().Tasks() > 0; ran != (workers > 1) {
					t.Fatalf("%s: ran on the runtime = %v", what, ran)
				}
				e.Close()
				if o.Bits > 24 {
					debug.FreeOSMemory()
				}
			}
		}
	}
}

// TestPassSplits pins the pass split each engine runs (Engine.split):
// the serial engine the plan's passes, a runtime lease a first pass of
// min(B, maxFirstPassBits) bits and balanced passes of at most as many
// after it.
func TestPassSplits(t *testing.T) {
	serial, lease := serialEngine(t), NewEngine(testRuntime(t), 2)
	defer lease.Close()
	for _, c := range []struct {
		o              radix.Opts
		serial, leased []int
	}{
		{radix.Opts{Bits: 0}, []int{0}, []int{0}},
		{radix.Opts{Bits: 8}, []int{8}, []int{8}},
		{radix.Opts{Bits: 11, Passes: []int{6, 5}}, []int{6, 5}, []int{11}},
		{radix.Opts{Bits: 16}, []int{16}, []int{12, 4}},
		{radix.Opts{Bits: 25, Passes: []int{5, 5, 5, 5, 5}}, []int{5, 5, 5, 5, 5}, []int{12, 7, 6}},
	} {
		if nch, got := serial.split(testN, c.o); nch != 1 || !slices.Equal(got, c.serial) {
			t.Errorf("serial %+v: %d chunks, passes %v; want 1, %v", c.o, nch, got, c.serial)
		}
		if nch, got := lease.split(testN, c.o); nch != 2*morselsPerWorker || !slices.Equal(got, c.leased) {
			t.Errorf("lease %+v: %d chunks, passes %v; want %d, %v", c.o, nch, got, 2*morselsPerWorker, c.leased)
		}
	}
}
