package experiments

import (
	"fmt"
	"math/rand/v2"

	"radixdecluster/internal/cachesim"
	"radixdecluster/internal/core"
	"radixdecluster/internal/costmodel"
	"radixdecluster/internal/jive"
	"radixdecluster/internal/join"
	"radixdecluster/internal/mem"
	"radixdecluster/internal/posjoin"
	"radixdecluster/internal/radix"
	"radixdecluster/internal/trace"
	"radixdecluster/internal/workload"
)

// Fig7a sweeps the Radix-Decluster insertion-window size: simulated
// L1/L2/TLB miss counts (the paper's hardware counters), the modeled
// time from Appendix A, and the measured wall-clock of the real
// implementation. Input clustered on 8 bits, as in the paper.
func Fig7a(cfg Config) (*Table, error) {
	h := cfg.hier()
	n := cfg.scale(512<<10, 8<<20)
	simN := cfg.scale(256<<10, 1<<20)
	const bits = 8
	cl, vals, err := declusterFixture(n, bits, cfg.Seed)
	if err != nil {
		return nil, err
	}
	simCl, _, err := declusterFixture(simN, bits, cfg.Seed+1)
	if err != nil {
		return nil, err
	}
	m := costmodel.Model{H: h}
	t := &Table{
		ID:    "fig7a",
		Title: fmt.Sprintf("Radix-Decluster vs insertion window (N=%d, B=%d)", n, bits),
		Columns: []string{"window_bytes", "L1_misses", "L2_misses", "TLB_misses",
			"modeled_ms", "measured_ms"},
		Notes: []string{
			fmt.Sprintf("miss counts simulated at N=%d; times at N=%d", simN, n),
			"thresholds: TLB reach 256KB, L2 512KB (cf. Figure 7a's vertical lines)",
		},
	}
	for wb := 1 << 10; wb <= 32<<20; wb <<= 2 {
		wt := wb / 4
		if wt < 1 {
			wt = 1
		}
		s, err := cachesim.New(h)
		if err != nil {
			return nil, err
		}
		if err := trace.Decluster(s, simCl.ResultPos, simCl.Borders, wt); err != nil {
			return nil, err
		}
		modeled := m.Millis(costmodel.Decluster(m, n, 4, bits, wt))
		measured := timeIt(func() {
			if _, err := core.Decluster(vals, cl.ResultPos, cl.Borders, wt); err != nil {
				panic(err)
			}
		})
		t.Append(wb, s.MissesOf("L1"), s.MissesOf("L2"), s.MissesOf("TLB"), modeled, measured)
	}
	return t, nil
}

// Fig7b decomposes the Radix-Decluster DSM post-projection strategy
// into its components — partial Radix-Cluster, clustered
// Positional-Join, Radix-Decluster — across the number of radix bits.
func Fig7b(cfg Config) (*Table, error) {
	h := cfg.hier()
	n := cfg.scale(1<<20, 8<<20)
	ji, err := makeJoinIndex(n, cfg.Seed, h)
	if err != nil {
		return nil, err
	}
	col := payloadColumn(n)
	m := costmodel.Model{H: h}
	t := &Table{
		ID:      "fig7b",
		Title:   fmt.Sprintf("decluster strategy components vs radix bits (N=%d, pi=1)", n),
		Columns: []string{"bits", "cluster_ms", "posjoin_ms", "decluster_ms", "total_ms", "modeled_ms"},
	}
	for bits := 0; bits <= 20; bits += 2 {
		o := radix.Opts{Bits: bits, Ignore: radix.IgnoreBits(n, bits)}
		var cl *core.Clustered
		clusterMs := timeIt(func() {
			var err error
			cl, err = core.ClusterForDecluster(ji.Smaller, o)
			if err != nil {
				panic(err)
			}
		})
		fetched, result, cur := make([]int32, ji.Len()), make([]int32, ji.Len()), make([]int, 2*len(cl.Borders))
		posMs := timeIt(func() {
			if err := posjoin.ClusteredInto(fetched, col, cl.SmallerOIDs, cl.Borders); err != nil {
				panic(err)
			}
		})
		window := core.PlanWindow(h, 4)
		declMs := timeIt(func() { decluster(result, fetched, cl, window, cur) })
		modeled := m.Millis(costmodel.RadixCluster(m, ji.Len(), 8, []int{max(bits, 1)}).
			Add(costmodel.ClustPosJoin(m, ji.Len(), n, 4, bits)).
			Add(costmodel.Decluster(m, ji.Len(), 4, bits, window)))
		t.Append(bits, clusterMs, posMs, declMs, clusterMs+posMs+declMs, modeled)
	}
	return t, nil
}

// Fig8 compares the four DSM post-projection strategies of §4.1 —
// unsorted, sorted, partial-clustered, declustered — across
// projectivity π and two cardinalities.
func Fig8(cfg Config) (*Table, error) {
	h := cfg.hier()
	cards := []int{cfg.scale(500<<10, 8<<20)}
	if !cfg.Quick {
		cards = append(cards, cfg.scale(2<<20, 8<<20))
	}
	pis := []int{1, 4, 16, 64}
	if cfg.Full {
		pis = append(pis, 256)
	}
	t := &Table{
		ID:      "fig8",
		Title:   "DSM post-projection strategies (ms)",
		Columns: []string{"N", "pi", "unsorted", "sorted", "p-clustered", "declustered"},
		Notes:   []string{"projection phase only (join-index given), summed over pi columns"},
	}
	for _, n := range cards {
		ji, err := makeJoinIndex(n, cfg.Seed, h)
		if err != nil {
			return nil, err
		}
		col := payloadColumn(n)
		bits := radix.OptimalBits(n, 4, h.LLC().Size)
		o := radix.Opts{Bits: bits, Ignore: radix.IgnoreBits(n, bits)}
		window := core.PlanWindow(h, 4)
		// One output column (and one Radix-Decluster result and cursor
		// array) serves every projection column of every strategy.
		out, result, cur := make([]int32, ji.Len()), make([]int32, ji.Len()), make([]int, 2<<bits)
		for _, pi := range pis {
			uMs := timeIt(func() {
				for k := 0; k < pi; k++ {
					if err := posjoin.FetchInto(out, col, ji.Larger); err != nil {
						panic(err)
					}
				}
			})
			sMs := timeIt(func() {
				srt, err := radix.SortOIDPairs(ji.Larger, ji.Smaller, h)
				if err != nil {
					panic(err)
				}
				for k := 0; k < pi; k++ {
					if err := posjoin.FetchInto(out, col, srt.Key); err != nil {
						panic(err)
					}
				}
			})
			cMs := timeIt(func() {
				cl, err := radix.ClusterOIDPairs(ji.Larger, ji.Smaller, o)
				if err != nil {
					panic(err)
				}
				for k := 0; k < pi; k++ {
					if err := posjoin.ClusteredInto(out, col, cl.Key, cl.Borders()); err != nil {
						panic(err)
					}
				}
			})
			dMs := timeIt(func() {
				cl, err := core.ClusterForDecluster(ji.Smaller, o)
				if err != nil {
					panic(err)
				}
				for k := 0; k < pi; k++ {
					if err := posjoin.ClusteredInto(out, col, cl.SmallerOIDs, cl.Borders); err != nil {
						panic(err)
					}
					decluster(result, out, cl, window, cur)
				}
			})
			t.Append(n, pi, uMs, sMs, cMs, dMs)
		}
	}
	return t, nil
}

func fig9Cards(cfg Config) []int {
	if cfg.Full {
		return []int{4 << 20, 16 << 20}
	}
	if cfg.Quick {
		return []int{32 << 10}
	}
	return []int{250 << 10, 1 << 20}
}

// Fig9a: Radix-Cluster, modeled vs measured, vs radix bits.
func Fig9a(cfg Config) (*Table, error) {
	h := cfg.hier()
	m := costmodel.Model{H: h}
	t := &Table{
		ID:      "fig9a",
		Title:   "Radix-Cluster (single pass) modeled vs measured",
		Columns: []string{"N", "bits", "modeled_ms", "measured_ms"},
	}
	for _, n := range fig9Cards(cfg) {
		heads, keys := randomPairs(n, cfg.Seed)
		buf := [2][]uint64{make([]uint64, n)} // single pass: one buffer
		for bits := 0; bits <= 20; bits += 2 {
			measured := timeIt(func() {
				if _, err := radix.ClusterBUNsInto(buf, heads, keys, radix.Opts{Bits: bits}); err != nil {
					panic(err)
				}
			})
			modeled := m.Millis(costmodel.RadixCluster(m, n, 8, []int{max(bits, 1)}))
			t.Append(n, bits, modeled, measured)
		}
	}
	return t, nil
}

// Fig9b: Partitioned Hash-Join (join phase on preclustered inputs).
func Fig9b(cfg Config) (*Table, error) {
	h := cfg.hier()
	m := costmodel.Model{H: h}
	t := &Table{
		ID:      "fig9b",
		Title:   "Partitioned Hash-Join modeled vs measured (0 = unclustered)",
		Columns: []string{"N", "bits", "modeled_ms", "measured_ms"},
	}
	for _, n := range fig9Cards(cfg) {
		pr, err := workload.GenPair(workload.Params{N: n, Omega: 1, HitRate: 1, SelLarger: 1, SelSmaller: 1, Seed: cfg.Seed})
		if err != nil {
			return nil, err
		}
		for bits := 0; bits <= 20; bits += 2 {
			o := radix.Opts{Bits: bits, Passes: radix.SplitBits(bits, radix.MaxBitsPerPass(h))}
			cl, err := clusterBUNs(pr.Larger.SelOIDs, pr.Larger.SelKeys, o)
			if err != nil {
				return nil, err
			}
			cs, err := clusterBUNs(pr.Smaller.SelOIDs, pr.Smaller.SelKeys, o)
			if err != nil {
				return nil, err
			}
			ix := &join.Index{Larger: make([]OID, 0, n), Smaller: make([]OID, 0, n)}
			ts := tableFor(cs.Offsets)
			measured := timeIt(func() {
				if err := join.PartitionedPreclusteredInto(ix, &ts, cl, cs, uint(bits)); err != nil {
					panic(err)
				}
			})
			modeled := m.Millis(costmodel.PartitionedHashJoin(m, n, n, 8, bits, pr.ExpectedMatches))
			t.Append(n, bits, modeled, measured)
		}
	}
	return t, nil
}

// Fig9c: Clustered Positional-Join vs radix bits (hit rate 1).
func Fig9c(cfg Config) (*Table, error) {
	h := cfg.hier()
	m := costmodel.Model{H: h}
	t := &Table{
		ID:      "fig9c",
		Title:   "Clustered Positional-Join modeled vs measured (0 = unclustered)",
		Columns: []string{"N", "bits", "modeled_ms", "measured_ms"},
	}
	for _, n := range fig9Cards(cfg) {
		ji, err := makeJoinIndex(n, cfg.Seed, h)
		if err != nil {
			return nil, err
		}
		col := payloadColumn(n)
		for bits := 0; bits <= 20; bits += 2 {
			o := radix.Opts{Bits: bits, Ignore: radix.IgnoreBits(n, bits)}
			cl, err := radix.ClusterOIDPairs(ji.Larger, ji.Smaller, o)
			if err != nil {
				return nil, err
			}
			out := make([]int32, ji.Len())
			measured := timeIt(func() {
				if err := posjoin.ClusteredInto(out, col, cl.Key, cl.Borders()); err != nil {
					panic(err)
				}
			})
			modeled := m.Millis(costmodel.ClustPosJoin(m, ji.Len(), n, 4, bits))
			t.Append(n, bits, modeled, measured)
		}
	}
	return t, nil
}

// Fig9d: Radix-Decluster vs radix bits with the paper's w=32 window
// sizing (window = 32·2^B tuples).
func Fig9d(cfg Config) (*Table, error) {
	h := cfg.hier()
	m := costmodel.Model{H: h}
	t := &Table{
		ID:      "fig9d",
		Title:   "Radix-Decluster modeled vs measured (w=32)",
		Columns: []string{"N", "bits", "window_tuples", "modeled_ms", "measured_ms"},
	}
	for _, n := range fig9Cards(cfg) {
		for bits := 2; bits <= 20; bits += 2 {
			cl, vals, err := declusterFixture(n, bits, cfg.Seed)
			if err != nil {
				return nil, err
			}
			window := core.MinTuplesPerClusterWindow << bits
			measured := timeIt(func() {
				if _, err := core.Decluster(vals, cl.ResultPos, cl.Borders, window); err != nil {
					panic(err)
				}
			})
			modeled := m.Millis(costmodel.Decluster(m, n, 4, bits, window))
			t.Append(n, bits, window, modeled, measured)
		}
	}
	return t, nil
}

// Fig9e: Left Jive-Join vs cluster bits.
func Fig9e(cfg Config) (*Table, error) {
	h := cfg.hier()
	m := costmodel.Model{H: h}
	t := &Table{
		ID:      "fig9e",
		Title:   "Left Jive-Join modeled vs measured",
		Columns: []string{"N", "bits", "modeled_ms", "measured_ms"},
	}
	for _, n := range fig9Cards(cfg) {
		ji, err := sortedJoinIndex(n, cfg.Seed, h)
		if err != nil {
			return nil, err
		}
		col := payloadColumn(n)
		for bits := 0; bits <= 20; bits += 2 {
			measured := timeIt(func() {
				if _, err := jive.Left(ji, [][]int32{col}, n, bits); err != nil {
					panic(err)
				}
			})
			modeled := m.Millis(costmodel.LeftJive(m, ji.Len(), n, 4, bits))
			t.Append(n, bits, modeled, measured)
		}
	}
	return t, nil
}

// Fig9f: Right Jive-Join vs cluster bits.
func Fig9f(cfg Config) (*Table, error) {
	h := cfg.hier()
	m := costmodel.Model{H: h}
	t := &Table{
		ID:      "fig9f",
		Title:   "Right Jive-Join modeled vs measured",
		Columns: []string{"N", "bits", "modeled_ms", "measured_ms"},
	}
	for _, n := range fig9Cards(cfg) {
		ji, err := sortedJoinIndex(n, cfg.Seed, h)
		if err != nil {
			return nil, err
		}
		col := payloadColumn(n)
		for bits := 0; bits <= 20; bits += 2 {
			lr, err := jive.Left(ji, nil, n, bits)
			if err != nil {
				return nil, err
			}
			measured := timeIt(func() {
				if _, err := jive.Right(lr, [][]int32{col}); err != nil {
					panic(err)
				}
			})
			modeled := m.Millis(costmodel.RightJive(m, ji.Len(), n, 4, bits))
			t.Append(n, bits, modeled, measured)
		}
	}
	return t, nil
}

// Fig11 measures the sparse Clustered Positional-Join: the join
// relation is a selection of the base table, so clustered fetches
// skip over unused cache-line words (§4.2).
func Fig11(cfg Config) (*Table, error) {
	h := cfg.hier()
	n := cfg.scale(256<<10, 1<<20)
	t := &Table{
		ID:      "fig11",
		Title:   fmt.Sprintf("sparse Clustered Positional-Join (N=%d)", n),
		Columns: []string{"selectivity", "bits", "measured_ms"},
	}
	for _, sel := range []float64{1, 0.1, 0.01} {
		pr, err := workload.GenPair(workload.Params{
			N: n, Omega: 2, HitRate: 1, SelLarger: sel, SelSmaller: 1, Seed: cfg.Seed,
		})
		if err != nil {
			return nil, err
		}
		ji, err := joinPair(pr, h)
		if err != nil {
			return nil, err
		}
		col := pr.Larger.PayloadCol(1)
		out := make([]int32, ji.Len())
		for bits := 0; bits <= 20; bits += 2 {
			o := radix.Opts{Bits: bits, Ignore: max(mem.Log2Ceil(pr.Larger.BaseN)-bits, 0)}
			cl, err := radix.ClusterOIDPairs(ji.Larger, ji.Smaller, o)
			if err != nil {
				return nil, err
			}
			measured := timeIt(func() {
				if err := posjoin.ClusteredInto(out, col, cl.Key, cl.Borders()); err != nil {
					panic(err)
				}
			})
			t.Append(fmt.Sprintf("%.0f%%", sel*100), bits, measured)
		}
	}
	return t, nil
}

// declusterFixture builds (clustered views, values) for a decluster
// run of n tuples over `bits` clusters.
func declusterFixture(n, bits int, seed uint64) (*core.Clustered, []int32, error) {
	rng := rand.New(rand.NewPCG(seed, 0xdec))
	smaller := make([]OID, n)
	for i := range smaller {
		smaller[i] = OID(rng.IntN(n))
	}
	cl, err := core.ClusterForDecluster(smaller, radix.Opts{Bits: bits, Ignore: radix.IgnoreBits(n, bits)})
	if err != nil {
		return nil, nil, err
	}
	vals := make([]int32, n)
	for i, o := range cl.SmallerOIDs {
		vals[i] = int32(o)
	}
	return cl, vals, nil
}

func payloadColumn(n int) []int32 {
	col := make([]int32, n)
	for i := range col {
		col[i] = workload.PayloadValue(OID(i), 1)
	}
	return col
}

func randomPairs(n int, seed uint64) ([]OID, []int32) {
	rng := rand.New(rand.NewPCG(seed, 0x9a))
	heads := make([]OID, n)
	keys := make([]int32, n)
	for i := range heads {
		heads[i] = OID(i)
		keys[i] = int32(rng.Uint32() >> 1)
	}
	return heads, keys
}

func sortedJoinIndex(n int, seed uint64, h mem.Hierarchy) (*join.Index, error) {
	ji, err := makeJoinIndex(n, seed, h)
	if err != nil {
		return nil, err
	}
	srt, err := radix.SortOIDPairs(ji.Larger, ji.Smaller, h)
	if err != nil {
		return nil, err
	}
	return &join.Index{Larger: srt.Key, Smaller: srt.Other}, nil
}

// decluster is Radix-Decluster into the caller's result and cursor
// arrays (core.DeclusterKernel after its input check), so a timed
// region running it allocates nothing.
func decluster(result, values []int32, cl *core.Clustered, window int, cur []int) {
	if err := core.CheckDecluster(len(values), cl.ResultPos, cl.Borders, window); err != nil {
		panic(err)
	}
	if err := core.DeclusterKernel(result, values, cl.ResultPos, cl.Borders, window, cur); err != nil {
		panic(err)
	}
}
