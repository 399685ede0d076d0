package costmodel

import (
	"testing"

	"radixdecluster/internal/mem"
)

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
