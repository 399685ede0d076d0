package costmodel

import (
	"testing"

	"radixdecluster/internal/mem"
)

// ForQueries must shrink the cache share and the bus-stream budget
// evenly across active queries, and leave the sole-query model alone.
func TestForQueriesDividesShares(t *testing.T) {
	m := Model{H: mem.Pentium4(), Streams: 8}
	if got := m.ForQueries(1); got.share() != 1 || got.queries() != 1 {
		t.Fatalf("ForQueries(1) changed the model: share=%g queries=%d", got.share(), got.queries())
	}
	m2 := m.ForQueries(2)
	if m2.share() != 0.5 {
		t.Fatalf("two queries: share %g, want 0.5", m2.share())
	}
	if got := m2.MemStreams(); got != 4 {
		t.Fatalf("two queries: %d streams of 8, want 4", got)
	}
	if got := m.ForQueries(100).MemStreams(); got != 1 {
		t.Fatalf("oversubscribed queries must keep at least one stream, got %d", got)
	}
	// Nested composition: a half-share model split across 2 queries
	// sees a quarter of the cache.
	if got := (Model{H: m.H, Share: 0.5}).ForQueries(2).share(); got != 0.25 {
		t.Fatalf("composed share %g, want 0.25", got)
	}
}

// The calibrated saturation-stream count must be sane for the paper's
// machine — the §1.1 sequential-vs-random gap is "nearly a factor 10",
// so the estimate lands well above 1 and below the clamp — and must be
// stable across calls (cached per hierarchy).
func TestSaturationStreamsCalibrated(t *testing.T) {
	h := mem.Pentium4()
	s := SaturationStreams(h)
	if s < 2 || s > 64 {
		t.Fatalf("Pentium4 calibrated to %d streams, want within [2, 64]", s)
	}
	if again := SaturationStreams(h); again != s {
		t.Fatalf("calibration not stable: %d then %d", s, again)
	}
}

// An uncalibratable hierarchy must fall back to the classic constant 4.
func TestSaturationStreamsFallback(t *testing.T) {
	if s := SaturationStreams(mem.Hierarchy{}); s != 4 {
		t.Fatalf("empty hierarchy: %d streams, want the fallback 4", s)
	}
}

// Concurrent queries must raise the bandwidth floor: with the stream
// budget split across queries, the modeled elapsed time at high
// worker counts cannot be lower than the sole-query estimate.
func TestParallelNanosConcurrentQueriesRaiseFloor(t *testing.T) {
	base := Model{H: mem.Pentium4(), Streams: 8}
	const n = 8 << 20
	serial := DSMPostDecluster(base, n, n, 4, 8, 2, 64<<10)
	for _, q := range []int{2, 4, 8} {
		mq := base.ForQueries(q)
		for _, w := range []int{4, 16, 64} {
			per := parallelPerWorker(base, w, dsmPostCost(n, 8, 2))
			sole := base.ParallelNanos(per, serial, w)
			shared := mq.ParallelNanos(per, serial, w)
			if shared < sole {
				t.Fatalf("q=%d w=%d: shared-machine estimate %.0fns below sole-query %.0fns",
					q, w, shared, sole)
			}
		}
	}
}

// Under heavy concurrency the chooser must not pick more workers than
// it would for a sole query: less cache and less bandwidth per query
// can only push the optimum down.
func TestChooseShrinksUnderConcurrency(t *testing.T) {
	m := Model{H: mem.Pentium4(), Streams: 8}
	const n = 4 << 20
	sole, _ := Choose(m, 16, dsmPostCost(n, 8, 2), Compression{})
	shared, _ := Choose(m.ForQueries(8), 16, dsmPostCost(n, 8, 2), Compression{})
	if shared > sole {
		t.Fatalf("8 concurrent queries chose %d workers, sole query %d", shared, sole)
	}
	if sole < 1 || sole > 16 || shared < 1 || shared > 16 {
		t.Fatalf("chosen workers out of range: sole=%d shared=%d", sole, shared)
	}
}
