package trace

import (
	"math/rand/v2"
	"testing"

	"radixdecluster/internal/cachesim"
	"radixdecluster/internal/core"
	"radixdecluster/internal/mem"
	"radixdecluster/internal/radix"
)

// declusterInput builds valid decluster inputs via the real clustering.
func declusterInput(n, bits int, seed uint64) *core.Clustered {
	rng := rand.New(rand.NewPCG(seed, 3))
	smaller := make([]OID, n)
	for i := range smaller {
		smaller[i] = OID(rng.IntN(n))
	}
	cl, err := core.ClusterForDecluster(smaller, radix.Opts{Bits: bits, Ignore: radix.IgnoreBits(n, bits)})
	if err != nil {
		panic(err)
	}
	return cl
}

func sim(t *testing.T, h mem.Hierarchy) *cachesim.Sim {
	t.Helper()
	s, err := cachesim.New(h)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// Figure 7a's central effect: Radix-Decluster gets faster with a
// growing insertion window until ‖W‖ exceeds the cache, then L2
// misses jump sharply.
func TestDeclusterWindowSweepMatchesFig7aShape(t *testing.T) {
	h := mem.Pentium4()
	const n = 256 << 10 // 256K tuples = 1MB values, 2x the 512KB L2
	cl := declusterInput(n, 6, 1)

	missesAt := func(windowBytes int) uint64 {
		s := sim(t, h)
		if err := Decluster(s, cl.ResultPos, cl.Borders, windowBytes/4); err != nil {
			t.Fatal(err)
		}
		return s.MissesOf("L2")
	}
	small := missesAt(64 << 10)  // 64KB window: well inside L2
	large := missesAt(512 << 10) // == L2 size: borderline
	huge := missesAt(2 << 20)    // 4x L2: the scatter thrashes

	if huge < small*3/2 {
		t.Fatalf("L2 misses with oversized window = %d, want well above %d (cache-sized window)", huge, small)
	}
	if large > huge {
		t.Fatalf("misses at ‖W‖=C (%d) should not exceed the oversized window (%d)", large, huge)
	}
}

// TLB misses must explode once the window spans more pages than TLB
// entries — the second threshold drawn in Figure 7a.
func TestDeclusterWindowTLBThreshold(t *testing.T) {
	h := mem.Pentium4() // 64-entry TLB = 256KB reach
	const n = 256 << 10
	cl := declusterInput(n, 4, 2)
	tlbAt := func(windowBytes int) uint64 {
		s := sim(t, h)
		if err := Decluster(s, cl.ResultPos, cl.Borders, windowBytes/4); err != nil {
			t.Fatal(err)
		}
		return s.MissesOf("TLB")
	}
	inside := tlbAt(128 << 10) // 32 pages: fits the TLB
	beyond := tlbAt(1 << 20)   // 256 pages: 4x the TLB reach
	if beyond < inside*2 {
		t.Fatalf("TLB misses beyond reach = %d, want well above %d", beyond, inside)
	}
}
