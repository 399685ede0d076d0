package experiments

import (
	"fmt"
	"strings"

	"radixdecluster/internal/bat"
	"radixdecluster/internal/buffer"
	"radixdecluster/internal/calibrator"
	"radixdecluster/internal/core"
	"radixdecluster/internal/strategy"
	"radixdecluster/internal/workload"
)

// strategyMs runs one end-to-end strategy and returns total
// milliseconds.
func strategyMs(run func() (*strategy.Result, error)) (float64, error) {
	res, err := run()
	if err != nil {
		return 0, err
	}
	return float64(res.Timings.Total.Nanoseconds()) / 1e6, nil
}

func dsmSides(pr *workload.Pair, pi int) (strategy.DSMSide, strategy.DSMSide) {
	return strategy.DSMSide{
			OIDs: pr.Larger.SelOIDs, Keys: pr.Larger.SelKeys,
			Cols: pr.Larger.ProjCols(pi), BaseN: pr.Larger.BaseN,
		}, strategy.DSMSide{
			OIDs: pr.Smaller.SelOIDs, Keys: pr.Smaller.SelKeys,
			Cols: pr.Smaller.ProjCols(pi), BaseN: pr.Smaller.BaseN,
		}
}

func nsmSides(pr *workload.Pair, pi int) (strategy.NSMSide, strategy.NSMSide) {
	cols := make([]int, pi)
	for i := range cols {
		cols[i] = i + 1
	}
	return strategy.NSMSide{Rel: pr.Larger.NSM(), KeyCol: 0, ProjCols: cols},
		strategy.NSMSide{Rel: pr.Smaller.NSM(), KeyCol: 0, ProjCols: cols}
}

// allStrategies measures the six Figure-10 strategies on a pair.
func allStrategies(pr *workload.Pair, pi int, cfg strategy.Config) ([]float64, error) {
	l, s := dsmSides(pr, pi)
	nl, ns := nsmSides(pr, pi)
	runs := []func() (*strategy.Result, error){
		func() (*strategy.Result, error) { return strategy.NSMPre(nl, ns, false, cfg) },
		func() (*strategy.Result, error) { return strategy.NSMPre(nl, ns, true, cfg) },
		func() (*strategy.Result, error) { return strategy.DSMPre(l, s, cfg) },
		func() (*strategy.Result, error) {
			return strategy.DSMPost(l, s, strategy.Auto, strategy.Auto, cfg)
		},
		func() (*strategy.Result, error) { return strategy.NSMPostDecluster(nl, ns, cfg) },
		func() (*strategy.Result, error) { return strategy.NSMPostJive(nl, ns, 0, cfg) },
	}
	out := make([]float64, len(runs))
	for i, r := range runs {
		ms, err := strategyMs(r)
		if err != nil {
			return nil, err
		}
		out[i] = ms
	}
	return out, nil
}

var strategyNames = []string{
	"NSM-pre-hash", "NSM-pre-phash", "DSM-pre-phash",
	"DSM-post-decluster", "NSM-post-decluster", "NSM-post-jive",
}

// Fig10a compares all strategies across projectivity π (N=500K,
// ω=64, h=1:1 in the paper), with sparse DSM post-projection runs
// (10% and 1% selections) as the paper's error bars.
func Fig10a(cfg Config) (*Table, error) {
	n, omega := cfg.scale(250<<10, 500<<10), 65 // key + 64 payload columns
	scfg := cfg.strategyConfig()
	t := &Table{
		ID:      "fig10a",
		Title:   fmt.Sprintf("overall join strategies vs projectivity (N=%d, omega=%d, h=1)", n, omega),
		Columns: append(append([]string{"pi"}, strategyNames...), "DSM-post-10%", "DSM-post-1%"),
		Notes:   []string{"last two columns: DSM post-projection with one relation a 10%/1% selection (paper's error bars); 1% capped at pi<=4 for memory"},
	}
	pis := []int{1, 4, 16, 64}
	for _, pi := range pis {
		pr, err := workload.GenPair(workload.Params{N: n, Omega: omega, HitRate: 1, SelLarger: 1, SelSmaller: 1, Seed: cfg.Seed})
		if err != nil {
			return nil, err
		}
		ms, err := allStrategies(pr, pi, scfg)
		if err != nil {
			return nil, err
		}
		sparse10, err := sparseDSMPost(n, omega, pi, 0.1, cfg.Seed, scfg)
		if err != nil {
			return nil, err
		}
		sparse1 := "-"
		if pi <= 4 {
			v, err := sparseDSMPost(n, omega, pi, 0.01, cfg.Seed, scfg)
			if err != nil {
				return nil, err
			}
			sparse1 = fmt.Sprintf("%.3f", v)
		}
		t.Append(pi, ms[0], ms[1], ms[2], ms[3], ms[4], ms[5],
			fmt.Sprintf("%.3f", sparse10), sparse1)
	}
	return t, nil
}

func sparseDSMPost(n, omega, pi int, sel float64, seed uint64, scfg strategy.Config) (float64, error) {
	pr, err := workload.GenPair(workload.Params{N: n, Omega: omega, HitRate: 1, SelLarger: sel, SelSmaller: 1, Seed: seed})
	if err != nil {
		return 0, err
	}
	l, s := dsmSides(pr, pi)
	return strategyMs(func() (*strategy.Result, error) {
		return strategy.DSMPost(l, s, strategy.Auto, strategy.Auto, scfg)
	})
}

// Fig10b compares all strategies across join hit rate h (π=4).
func Fig10b(cfg Config) (*Table, error) {
	n, omega, pi := cfg.scale(250<<10, 500<<10), 65, 4
	scfg := cfg.strategyConfig()
	t := &Table{
		ID:      "fig10b",
		Title:   fmt.Sprintf("overall join strategies vs hit rate (N=%d, omega=%d, pi=%d)", n, omega, pi),
		Columns: append([]string{"hitrate"}, strategyNames...),
	}
	for _, hr := range []float64{1.0 / 3, 1, 3} {
		pr, err := workload.GenPair(workload.Params{N: n, Omega: omega, HitRate: hr, SelLarger: 1, SelSmaller: 1, Seed: cfg.Seed})
		if err != nil {
			return nil, err
		}
		ms, err := allStrategies(pr, pi, scfg)
		if err != nil {
			return nil, err
		}
		t.Append(fmt.Sprintf("%.2f", hr), ms[0], ms[1], ms[2], ms[3], ms[4], ms[5])
	}
	return t, nil
}

// Fig10c sweeps cardinality: the DSM post-projection variants (u/u,
// c/u, c/d, s/d) at every N — showing the paper's method switching —
// plus the full strategy set at the small cardinalities where NSM
// relations stay affordable.
func Fig10c(cfg Config) (*Table, error) {
	cards := []int{15 << 10, 62 << 10, 250 << 10, 1 << 20}
	if cfg.Full {
		cards = append(cards, 4<<20, 16<<20)
	}
	if cfg.Quick {
		cards = []int{15 << 10, 62 << 10}
	}
	const pi = 4
	scfg := cfg.strategyConfig()
	t := &Table{
		ID:    "fig10c",
		Title: fmt.Sprintf("DSM post-projection vs cardinality (pi=%d, h=1)", pi),
		Columns: []string{"N", "u/u", "c/u", "c/d", "s/d", "auto", "auto_methods",
			"NSM-pre-phash"},
		Notes: []string{"NSM-pre-phash only at N<=250K (omega=64 NSM images get large); DSM columns use omega=pi+1, which is equivalent for DSM strategies (unused columns stay untouched, §4.1)"},
	}
	type variant struct{ lm, sm strategy.ProjMethod }
	variants := []variant{
		{strategy.Unsorted, strategy.Unsorted},
		{strategy.PartialCluster, strategy.Unsorted},
		{strategy.PartialCluster, strategy.Declustered},
		{strategy.SortedM, strategy.Declustered},
	}
	for _, n := range cards {
		pr, err := workload.GenPair(workload.Params{N: n, Omega: pi + 1, HitRate: 1, SelLarger: 1, SelSmaller: 1, Seed: cfg.Seed})
		if err != nil {
			return nil, err
		}
		l, s := dsmSides(pr, pi)
		row := []any{n}
		for _, v := range variants {
			ms, err := strategyMs(func() (*strategy.Result, error) {
				return strategy.DSMPost(l, s, v.lm, v.sm, scfg)
			})
			if err != nil {
				return nil, err
			}
			row = append(row, ms)
		}
		autoRes, err := strategy.DSMPost(l, s, strategy.Auto, strategy.Auto, scfg)
		if err != nil {
			return nil, err
		}
		row = append(row,
			float64(autoRes.Timings.Total.Nanoseconds())/1e6,
			fmt.Sprintf("%c/%c", autoRes.LargerMethod, autoRes.SmallerMethod))
		if n <= 250<<10 {
			prW, err := workload.GenPair(workload.Params{N: n, Omega: 65, HitRate: 1, SelLarger: 1, SelSmaller: 1, Seed: cfg.Seed})
			if err != nil {
				return nil, err
			}
			nl, ns := nsmSides(prW, pi)
			ms, err := strategyMs(func() (*strategy.Result, error) {
				return strategy.NSMPre(nl, ns, true, scfg)
			})
			if err != nil {
				return nil, err
			}
			row = append(row, ms)
		} else {
			row = append(row, "-")
		}
		t.Append(row...)
	}
	return t, nil
}

// Fig12 exercises the Section-5 buffer-manager path: variable-size
// values declustered into slotted pages in three phases, against the
// contiguous-array decluster as the baseline.
func Fig12(cfg Config) (*Table, error) {
	h := cfg.hier()
	n := cfg.scale(200<<10, 1<<20)
	const bits = 6
	cl, _, err := declusterFixture(n, bits, cfg.Seed)
	if err != nil {
		return nil, err
	}
	vals := make([]string, n)
	for i, pos := range cl.ResultPos {
		vals[i] = fmt.Sprintf("value-%d-%s", pos, strings.Repeat("x", int(pos)%17))
	}
	col := bat.NewVarColumn("v", vals)
	window := core.PlanWindow(h, 4)
	const pageSize = 8 << 10

	t := &Table{
		ID:      "fig12",
		Title:   fmt.Sprintf("variable-size Radix-Decluster into %dB buffer pages (N=%d)", pageSize, n),
		Columns: []string{"variant", "ms", "pages"},
	}
	var pool *buffer.Pool
	varMs := timeIt(func() {
		var err error
		pool, err = buffer.DeclusterVarsize(col, cl.ResultPos, cl.Borders, window, pageSize)
		if err != nil {
			panic(err)
		}
	})
	t.Append("varsize-3phase", varMs, pool.NumPages())

	ints := make([]int32, n)
	for i := range ints {
		ints[i] = int32(i)
	}
	var fixedPool *buffer.Pool
	fixMs := timeIt(func() {
		var err error
		fixedPool, err = buffer.DeclusterFixed(ints, cl.ResultPos, cl.Borders, window, pageSize)
		if err != nil {
			panic(err)
		}
	})
	t.Append("fixed-1phase", fixMs, fixedPool.NumPages())

	arrMs := timeIt(func() {
		if _, err := core.Decluster(ints, cl.ResultPos, cl.Borders, window); err != nil {
			panic(err)
		}
	})
	t.Append("contiguous-array", arrMs, 0)
	return t, nil
}

// Calib compares the Calibrator's recovered parameters against the
// hierarchy specification (the paper's §4 hardware table).
func Calib(cfg Config) (*Table, error) {
	h := cfg.hier()
	res, err := calibrator.Calibrate(h)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "calib",
		Title:   "calibrated vs specified hierarchy parameters",
		Columns: []string{"parameter", "specified", "calibrated"},
	}
	caches := h.Caches()
	for i, l := range caches {
		got := "-"
		if i < len(res.Levels) {
			got = fmt.Sprint(res.Levels[i].Size)
		}
		t.Append(l.Name+"_size", l.Size, got)
	}
	if tlb, ok := h.TLB(); ok {
		t.Append("TLB_reach", tlb.Size, res.TLBReach)
	}
	t.Append("line_size(innermost)", caches[0].LineSize, res.LineSize)
	return t, nil
}
