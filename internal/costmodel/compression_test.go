package costmodel

import (
	"testing"

	"radixdecluster/internal/compress"
	"radixdecluster/internal/mem"
)

func TestCompressionApplyShrinksBusTraffic(t *testing.T) {
	m := Model{H: mem.Pentium4()}
	const n = 1 << 22
	serial := DSMPostDecluster(m, n, n, 4, 10, 4, 1<<14)
	cp := Compression{Ratio: 0.4, Values: 5 * n, DecodeNs: 1}
	adj := cp.Apply(m, serial, 1)
	if got, want := m.MemNanos(adj), m.MemNanos(serial); got >= want {
		t.Fatalf("MemNanos after compression %g, want < raw %g", got, want)
	}
	if adj.CPU <= serial.CPU {
		t.Fatalf("CPU after compression %g, want > raw %g", adj.CPU, serial.CPU)
	}
	// Random misses are untouched: only the sequential streams shrink.
	llc := m.H.LLC().Name
	for i, l := range adj.Levels {
		if l.Name == llc {
			if l.Rand != serial.Levels[i].Rand {
				t.Fatalf("LLC random misses changed: %g != %g", l.Rand, serial.Levels[i].Rand)
			}
			if l.Seq >= serial.Levels[i].Seq {
				t.Fatalf("LLC seq misses %g, want < %g", l.Seq, serial.Levels[i].Seq)
			}
		}
	}
}

func TestCompressionDisabled(t *testing.T) {
	m := Model{H: mem.Pentium4()}
	c := Cost{Levels: []LevelCost{{Name: "L2", Seq: 100}}, CPU: 10}
	for _, cp := range []Compression{
		{},                                     // zero value
		{Ratio: 1.2, Values: 100, DecodeNs: 1}, // incompressible
		{Ratio: 0.5, Values: 0, DecodeNs: 1},   // nothing to decode
	} {
		if cp.Enabled() {
			t.Fatalf("%+v: Enabled, want disabled", cp)
		}
		if got := cp.Apply(m, c, 1); got.CPU != c.CPU {
			t.Fatalf("%+v: Apply changed a disabled term", cp)
		}
	}
}

// TestPlanCompressedBandwidthBound pins the headline behaviour: when a
// plan is bandwidth-bound (many workers contending for few bus
// streams, cheap decode), the compressed representation wins; when
// decode is absurdly expensive, raw wins.
func TestPlanCompressedBandwidthBound(t *testing.T) {
	m := Model{H: mem.Pentium4(), Streams: 1}
	const n = 1 << 22
	cost := func(m Model, w int) Cost {
		return DSMPostDecluster(m, ceilDiv(n, w), ceilDiv(n, w), 4, 10, 4, (1<<14)/w)
	}
	cheap := Compression{Ratio: 0.3, Values: 5 * n, DecodeNs: 0.2}
	if !CompressedWins(m, 8, cost, cheap) {
		t.Fatal("bandwidth-bound plan with cheap decode: compressed not chosen")
	}
	pricey := Compression{Ratio: 0.95, Values: 5 * n, DecodeNs: 5000}
	for _, w := range []int{0, 1, 8} {
		if CompressedWins(m, w, cost, pricey) {
			t.Fatalf("near-incompressible data with expensive decode: compressed chosen at %d workers", w)
		}
	}
}

func TestDecodeNanosCalibrated(t *testing.T) {
	for _, s := range []compress.Scheme{compress.FOR, compress.DeltaFOR} {
		d := DecodeNanos(s)
		if d < 0.05 || d > 50 {
			t.Fatalf("scheme %d: DecodeNanos %g outside calibration clamp", s, d)
		}
		if again := DecodeNanos(s); again != d {
			t.Fatalf("scheme %d: cached value changed: %g != %g", s, again, d)
		}
	}
}
