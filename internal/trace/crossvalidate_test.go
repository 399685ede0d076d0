package trace

import (
	"testing"

	"radixdecluster/internal/cachesim"
	"radixdecluster/internal/costmodel"
	"radixdecluster/internal/mem"
)

// Cross-validation of the two "modeled" planes: the analytic
// Appendix-A cost model and the trace-driven cache simulator must
// agree on *trends*, even though one is a closed-form approximation
// and the other an exact replay. This is the repository's version of
// the paper's "dots and lines nicely coincide" claim (§4.1).

// For the Radix-Decluster window sweep, both planes must agree that
// (a) an oversized window costs more than a cache-sized one and (b)
// a tiny window costs more than a cache-sized one (TLB/burst effects).
func TestModelAndSimAgreeOnDeclusterWindowTrend(t *testing.T) {
	h := mem.Pentium4()
	const n = 128 << 10
	const bits = 6
	cl := declusterInput(n, bits, 3)
	m := costmodel.Model{H: h}

	type plane struct{ tiny, good, huge float64 }
	var simP, modP plane
	run := func(windowTuples int) float64 {
		s, err := cachesim.New(h)
		if err != nil {
			t.Fatal(err)
		}
		if err := Decluster(s, cl.ResultPos, cl.Borders, windowTuples); err != nil {
			t.Fatal(err)
		}
		return s.ModeledNanos()
	}
	model := func(windowTuples int) float64 {
		return m.Nanos(costmodel.Decluster(m, n, 4, bits, windowTuples))
	}
	tiny, good, huge := 256, 64<<10, 2<<20
	simP = plane{run(tiny), run(good), run(huge)}
	modP = plane{model(tiny), model(good), model(huge)}

	for name, p := range map[string]plane{"sim": simP, "model": modP} {
		if p.good >= p.huge {
			t.Errorf("%s: cache-sized window (%.0f) should beat oversized (%.0f)", name, p.good, p.huge)
		}
		if p.good >= p.tiny {
			t.Errorf("%s: cache-sized window (%.0f) should beat tiny (%.0f)", name, p.good, p.tiny)
		}
	}
}

// The model plane must show that clustered Positional-Joins beat
// unsorted ones by a large factor on an out-of-cache column (Figure 9c
// against the unclustered fetch).
func TestModelAgreesOnPosJoinTrend(t *testing.T) {
	h := mem.Pentium4()
	const colLen = 512 << 10 // 2MB column, 4x L2
	const nJI = 128 << 10
	m := costmodel.Model{H: h}
	unsortedM := m.Nanos(costmodel.ClustPosJoin(m, nJI, colLen, 4, 0))
	clusteredM := m.Nanos(costmodel.ClustPosJoin(m, nJI, colLen, 4, 4))
	if clusteredM*2 > unsortedM {
		t.Errorf("model: clustered (%.0f) should be well below unsorted (%.0f)", clusteredM, unsortedM)
	}
}
