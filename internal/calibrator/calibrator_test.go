package calibrator

import (
	"testing"
	"time"

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

// MemStreams must recover a bus-saturation stream count near the
// paper's "nearly a factor 10" sequential-vs-random gap for the
// Pentium 4 profile, deterministically, and reject hierarchies it
// cannot probe.
func TestMemStreams(t *testing.T) {
	s, err := MemStreams(mem.Pentium4())
	if err != nil {
		t.Fatal(err)
	}
	if s < 4 || s > 16 {
		t.Fatalf("Pentium4 saturates at %d streams, want within [4, 16] (the ~10x §1.1 gap)", s)
	}
	again, err := MemStreams(mem.Pentium4())
	if err != nil {
		t.Fatal(err)
	}
	if again != s {
		t.Fatalf("not deterministic: %d then %d", s, again)
	}
	if _, err := MemStreams(mem.Hierarchy{}); err == nil {
		t.Fatal("empty hierarchy not rejected")
	}
}

// MemStreams must answer for any hierarchy a caller can pass as
// JoinQuery.Hier: a host-shaped one (this box's sysfs: a 260 MiB L3,
// 4 KiB pages) used to spin the cache simulator for minutes inside the
// first parallel query. The small hierarchies the tests and the paper
// use are swept unscaled and keep their calibrated figures.
func TestMemStreamsBoundedWork(t *testing.T) {
	host := mem.Hierarchy{Levels: []mem.Level{
		{Name: "L1", Size: 48 << 10, LineSize: 64, Assoc: 12, MissLatency: 4, SeqLatency: 1},
		{Name: "L2", Size: 2 << 20, LineSize: 64, Assoc: 16, MissLatency: 14, SeqLatency: 3},
		{Name: "L3", Size: 256 << 20, LineSize: 64, Assoc: 16, MissLatency: 90, SeqLatency: 9},
		{Name: "TLB", Size: 1536 * 4096, LineSize: 4096, MissLatency: 20, SeqLatency: 20, IsTLB: true},
	}}
	// The same shape at a size that is swept as given: scaling must not
	// move the figure.
	mid := mem.Hierarchy{Levels: append([]mem.Level(nil), host.Levels...)}
	mid.Levels[1].Size, mid.Levels[2].Size, mid.Levels[3].Size = 256<<10, 2<<20, 12*4096
	for _, c := range []struct {
		name string
		h    mem.Hierarchy
		want int
	}{
		{"pentium4", mem.Pentium4(), 7},
		{"small", mem.Small(), 6},
		{"mid", mid, 10},
		{"host", host, 10},
		{"fully-associative LLC", mem.Hierarchy{Levels: []mem.Level{
			{Name: "L1", Size: 32 << 10, LineSize: 64, Assoc: 8, MissLatency: 4, SeqLatency: 1},
			{Name: "L2", Size: 64 << 20, LineSize: 64, MissLatency: 90, SeqLatency: 9},
		}}, 0},
	} {
		if c.name != "host" && c.want != 0 && probeWork(c.h, 128) > probeBudget {
			t.Fatalf("%s is meant to be swept unscaled", c.name)
		}
		start := time.Now()
		got, err := MemStreams(c.h)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		// Bounded work, told by the clock: a second unscaled, ten under
		// the race detector (1.4–4.6 s there on the reference box).
		limit := time.Second
		if raceEnabled {
			limit = 10 * time.Second
		}
		if d := time.Since(start); d > limit {
			t.Errorf("%s: MemStreams took %v, want under %v", c.name, d, limit)
		}
		if c.want != 0 && got != c.want {
			t.Errorf("%s: %d streams, want %d", c.name, got, c.want)
		}
		if err := probeScale(c.h, 64).Validate(); err != nil {
			t.Errorf("%s: scaled hierarchy: %v", c.name, err)
		}
	}
}
