package calibrator

import (
	"testing"

	"radixdecluster/internal/mem"
)

func TestCalibrateRecoversPentium4(t *testing.T) {
	h := mem.Pentium4()
	res, err := Calibrate(h)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Levels) < 2 {
		t.Fatalf("detected %d levels, want at least L1 and L2: %+v", len(res.Levels), res)
	}
	// L1 = 16KB, L2 = 512KB; power-of-two sweep must land exactly.
	if res.Levels[0].Size != 16<<10 {
		t.Errorf("L1 size = %d, want %d", res.Levels[0].Size, 16<<10)
	}
	found512 := false
	for _, l := range res.Levels {
		if l.Size == 512<<10 {
			found512 = true
		}
	}
	if !found512 {
		t.Errorf("L2 (512KB) not detected: %+v", res.Levels)
	}
	// TLB reach = 64 entries * 4KB = 256KB.
	if res.TLBReach != 256<<10 {
		t.Errorf("TLB reach = %d, want %d", res.TLBReach, 256<<10)
	}
	// Latencies must be positive and L2's penalty larger than L1's.
	if res.Levels[0].LatencyNs <= 0 {
		t.Errorf("L1 latency = %g", res.Levels[0].LatencyNs)
	}
}

func TestCalibrateRecoversSmall(t *testing.T) {
	res, err := Calibrate(mem.Small())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Levels) == 0 || res.Levels[0].Size != 1<<10 {
		t.Fatalf("small L1 not detected: %+v", res)
	}
}

func TestHierarchyFromResult(t *testing.T) {
	res, err := Calibrate(mem.Pentium4())
	if err != nil {
		t.Fatal(err)
	}
	h := res.Hierarchy(4096)
	if err := h.Validate(); err != nil {
		t.Fatalf("calibrated hierarchy invalid: %v", err)
	}
	if _, ok := h.TLB(); !ok {
		t.Fatal("calibrated hierarchy lost the TLB")
	}
	if h.LLC().Size < 256<<10 {
		t.Fatalf("calibrated LLC = %d", h.LLC().Size)
	}
}

func TestCalibrateRejectsBadHierarchy(t *testing.T) {
	if _, err := Calibrate(mem.Hierarchy{}); err == nil {
		t.Fatal("empty hierarchy not rejected")
	}
}
