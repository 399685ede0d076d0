package costmodel

import (
	"testing"

	"radixdecluster/internal/mem"
)

func model() Model { return Model{H: mem.Pentium4()} }

func TestSTravCountsLines(t *testing.T) {
	m := model()
	c := m.STrav(Region{N: 1024, Width: 4})  // 4KB
	if got := c.MissesOf("L1"); got != 128 { // 32B lines
		t.Fatalf("L1 = %g, want 128", got)
	}
	if got := c.MissesOf("L2"); got != 32 { // 128B lines
		t.Fatalf("L2 = %g, want 32", got)
	}
	if got := c.MissesOf("TLB"); got != 1 {
		t.Fatalf("TLB = %g, want 1", got)
	}
}

func TestRSTravCachedVsNot(t *testing.T) {
	m := model()
	small := m.RSTrav(10, Region{N: 1024, Width: 4}) // 4KB fits everywhere
	if got := small.MissesOf("L2"); got != 32 {
		t.Fatalf("cached repetition L2 = %g, want 32 (first pass only)", got)
	}
	big := m.RSTrav(10, Region{N: 1 << 20, Width: 4}) // 4MB exceeds L2
	if got := big.MissesOf("L2"); got != 10*32768 {
		t.Fatalf("uncached repetition L2 = %g, want %d", got, 10*32768)
	}
}

func TestRTravRevisitPenalty(t *testing.T) {
	m := model()
	fits := m.RTrav(Region{N: 64 << 10, Width: 4}) // 256KB < 512KB L2
	ln := 256.0 * 1024 / 128
	if got := fits.MissesOf("L2"); got != ln {
		t.Fatalf("fitting r_trav L2 = %g, want %g", got, ln)
	}
	over := m.RTrav(Region{N: 1 << 20, Width: 4}) // 4MB > L2
	if got := over.MissesOf("L2"); got <= 32768 {
		t.Fatalf("oversized r_trav L2 = %g, want above the %d compulsory misses", got, 32768)
	}
}

func TestRAccSaturation(t *testing.T) {
	m := model()
	r := Region{N: 1024, Width: 4}
	few := m.RAcc(10, r).MissesOf("L1")
	many := m.RAcc(10000, r).MissesOf("L1")
	if few > 10 {
		t.Fatalf("10 accesses cause %g misses", few)
	}
	if many > 129 || many < 120 {
		t.Fatalf("saturated r_acc = %g, want ≈128 lines", many)
	}
}

func TestNestThrashThreshold(t *testing.T) {
	m := model()
	r := Region{N: 1 << 20, Width: 8}
	okL2 := m.Nest(r, 512)        // 512 cursors * 128B = 64KB < 512KB
	thrashL2 := m.Nest(r, 64<<10) // 64K cursors * 128B = 8MB > 512KB
	if okL2.MissesOf("L2") >= thrashL2.MissesOf("L2") {
		t.Fatalf("L2 nest: %g (fits) !< %g (thrash)", okL2.MissesOf("L2"), thrashL2.MissesOf("L2"))
	}
	// TLB binds much earlier: 64 entries.
	okTLB := m.Nest(r, 32)
	thrashTLB := m.Nest(r, 4096)
	if okTLB.MissesOf("TLB") >= thrashTLB.MissesOf("TLB") {
		t.Fatalf("TLB nest: %g !< %g", okTLB.MissesOf("TLB"), thrashTLB.MissesOf("TLB"))
	}
}

func TestAddAndScale(t *testing.T) {
	m := model()
	a := m.STrav(Region{N: 1024, Width: 4})
	b := a.Add(a).Scale(2)
	if got, want := b.MissesOf("L1"), 4*a.MissesOf("L1"); got != want {
		t.Fatalf("Add+Scale L1 = %g, want %g", got, want)
	}
}

func TestNanosUsesLatencies(t *testing.T) {
	m := model()
	seq := Cost{Levels: []LevelCost{{Name: "L2", Seq: 1000}}}
	rnd := Cost{Levels: []LevelCost{{Name: "L2", Rand: 1000}}}
	if m.Nanos(seq) >= m.Nanos(rnd) {
		t.Fatalf("sequential misses (%.0f) must be cheaper than random (%.0f)", m.Nanos(seq), m.Nanos(rnd))
	}
}

// Figure 9a shape: Radix-Cluster cost is flat for small B, then rises
// once 2^B cursors exceed the TLB/L1, and a two-pass clustering of
// the same B is cheaper past the single-pass limit.
func TestRadixClusterShape(t *testing.T) {
	m := model()
	const n = 4 << 20
	at := func(passes []int) float64 { return m.Millis(RadixCluster(m, n, pairBytes, passes)) }
	if lo, hi := at([]int{4}), at([]int{16}); lo >= hi {
		t.Fatalf("cluster cost must grow with fan-out: B=4 %.1fms !< B=16 %.1fms", lo, hi)
	}
	if two, one := at([]int{8, 8}), at([]int{16}); two >= one {
		t.Fatalf("2-pass 16-bit (%.1fms) must beat 1-pass (%.1fms)", two, one)
	}
	if one, two := at([]int{4}), at([]int{2, 2}); two <= one {
		t.Fatalf("below the fan-out limit one pass (%.1fms) must beat two (%.1fms)", one, two)
	}
}

// Figure 9b shape: Partitioned Hash-Join cost falls with B until the
// inner partitions fit the cache, then flattens (and eventually the
// per-partition overhead shows).
func TestPartHashJoinShape(t *testing.T) {
	m := model()
	const n = 4 << 20
	at := func(b int) float64 { return m.Millis(PartitionedHashJoin(m, n, n, pairBytes, b, n)) }
	if naive, part := at(0), at(10); part >= naive {
		t.Fatalf("partitioned join (%.1fms) must beat naive (%.1fms)", part, naive)
	}
	// Past the fitting point, more bits should not help much.
	fit, more := at(10), at(14)
	if more > fit*1.5 {
		t.Fatalf("deep partitioning should stay flat: B=10 %.1fms vs B=14 %.1fms", fit, more)
	}
}

// Figure 9c shape: Clustered Positional-Join cost falls with B until
// one cluster's column slice fits the cache.
func TestClustPosJoinShape(t *testing.T) {
	m := model()
	const n = 4 << 20
	at := func(b int) float64 { return m.Millis(ClustPosJoin(m, n, n, 4, b)) }
	if unc, cl := at(0), at(8); cl >= unc {
		t.Fatalf("clustered (%.1fms) must beat unclustered (%.1fms)", cl, unc)
	}
	if cl8, cl16 := at(8), at(16); cl16 > cl8*1.5 {
		t.Fatalf("past the fitting point cost should flatten: B=8 %.1fms, B=16 %.1fms", cl8, cl16)
	}
}

// Figure 9d shape: Radix-Decluster cost rises once the cluster count
// makes per-window bursts too short (w < 32), and a cache-sized
// window beats an oversized one.
func TestDeclusterShape(t *testing.T) {
	m := model()
	const n = 4 << 20
	window := 64 << 10 // C/2 over 4-byte values
	at := func(b int) float64 { return m.Millis(Decluster(m, n, 4, b, window)) }
	if lo, hi := at(8), at(20); lo >= hi {
		t.Fatalf("decluster cost must grow with cluster count: B=8 %.1fms !< B=20 %.1fms", lo, hi)
	}
	good := m.Millis(Decluster(m, n, 4, 8, window))
	oversized := m.Millis(Decluster(m, n, 4, 8, 4<<20))
	if good >= oversized {
		t.Fatalf("cache-sized window (%.1fms) must beat oversized (%.1fms)", good, oversized)
	}
}

// Figures 9e/9f: Left Jive degrades with many clusters, Right Jive
// with few — the two phases pull B in opposite directions.
func TestJiveShapes(t *testing.T) {
	m := model()
	const n = 4 << 20
	if lo, hi := m.Millis(LeftJive(m, n, n, 4, 4)), m.Millis(LeftJive(m, n, n, 4, 18)); lo >= hi {
		t.Fatalf("left jive must degrade with fan-out: B=4 %.1fms !< B=18 %.1fms", lo, hi)
	}
	if few, many := m.Millis(RightJive(m, n, n, 4, 2)), m.Millis(RightJive(m, n, n, 4, 10)); many >= few {
		t.Fatalf("right jive must improve with fan-out: B=2 %.1fms !> B=10 %.1fms", few, many)
	}
}

// The strategy-level composition must scale linearly in π.
func TestDSMPostDeclusterScalesWithPi(t *testing.T) {
	m := model()
	one := m.Millis(DSMPostDecluster(m, 1<<20, 1<<20, 4, 8, 1, 64<<10))
	four := m.Millis(DSMPostDecluster(m, 1<<20, 1<<20, 4, 8, 4, 64<<10))
	if four < one*2 || four > one*5 {
		t.Fatalf("π=4 (%.1fms) should be ≈2-5x π=1 (%.1fms)", four, one)
	}
}

// MemNanos must isolate the LLC-miss (bus) component: it is positive
// for memory-sized regions, no larger than the full cost, and zero
// for an empty cost.
func TestMemNanos(t *testing.T) {
	m := model()
	c := m.RTrav(Region{N: 4 << 20, Width: 4})
	memNs := m.MemNanos(c)
	if memNs <= 0 {
		t.Fatal("no memory component for a 16MB random traversal")
	}
	if memNs > m.Nanos(c) {
		t.Fatalf("memory component %.0fns exceeds total %.0fns", memNs, m.Nanos(c))
	}
	if m.MemNanos(Cost{}) != 0 {
		t.Fatal("empty cost has memory time")
	}
}

// The bandwidth ceiling must bind: with enough workers the modeled
// elapsed time stops improving even though the per-worker cost keeps
// shrinking, and it never drops below total memory time divided by
// the saturation stream count.
func TestParallelNanosBandwidthCeiling(t *testing.T) {
	m := model()
	const n = 8 << 20
	serial := DSMPostDecluster(m, n, n, 4, 8, 2, 64<<10)
	floor := m.MemNanos(serial) / float64(m.MemStreams())
	var last float64
	for w := 2; w <= 64; w *= 2 {
		last = m.ParallelNanos(parallelPerWorker(m, w, dsmPostCost(n, 8, 2)), serial, w)
		if last < floor-1 {
			t.Fatalf("w=%d: %.0fns beats the bandwidth floor %.0fns", w, last, floor)
		}
	}
	// At 64 workers the ceiling, not work division, must set the time.
	if last > floor*4 {
		t.Fatalf("64 workers (%.0fns) far above the bandwidth floor (%.0fns): ceiling not binding", last, floor)
	}
}

// Every strategy's cost shape goes through the representation decision,
// and with nothing encoded raw wins at every worker count.
func TestChoosersCoverEveryStrategy(t *testing.T) {
	m := model()
	const n = 1 << 20
	for _, sh := range goldenShapes {
		cost := sh.cost(n, 8)
		for _, w := range []int{0, 1, 2, 8, 64} {
			if CompressedWins(m, w, cost, Compression{}) {
				t.Fatalf("%s: compressed chosen at %d workers with nothing encoded", sh.name, w)
			}
		}
	}
}

// The new strategy compositions must be monotone in their main size
// parameter and strictly positive.
func TestStrategyCostCompositions(t *testing.T) {
	m := model()
	small := m.Millis(PreProjectionRows(m, 1<<18, 1<<18, 12, 12, 8, 1<<18))
	big := m.Millis(PreProjectionRows(m, 1<<21, 1<<21, 12, 12, 8, 1<<21))
	if small <= 0 || big <= small {
		t.Fatalf("pre-projection cost not monotone: %d -> %.1fms, %d -> %.1fms", 1<<18, small, 1<<21, big)
	}
	narrow := m.Millis(NSMPostDecluster(m, 1<<20, 1<<20, 8, 4, 8, 64<<10))
	wide := m.Millis(NSMPostDecluster(m, 1<<20, 1<<20, 64, 4, 8, 64<<10))
	if narrow <= 0 || wide <= narrow {
		t.Fatalf("NSM post cost must grow with tuple width: ω=2 %.1fms !< ω=16 %.1fms", narrow, wide)
	}
	jv := m.Millis(JivePost(m, 1<<20, 1<<20, 1<<20, 16, 4, 8))
	if jv <= 0 {
		t.Fatalf("jive cost %.1fms", jv)
	}
}

func TestValidate(t *testing.T) {
	if err := model().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := Model{H: mem.Hierarchy{}}
	if err := bad.Validate(); err == nil {
		t.Fatal("empty hierarchy not rejected")
	}
}
