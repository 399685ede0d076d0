package radixdecluster

import (
	"fmt"
	"math/rand/v2"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"

	"radixdecluster/internal/bat"
	"radixdecluster/internal/compress"
	"radixdecluster/internal/core"
	"radixdecluster/internal/exec"
	"radixdecluster/internal/experiments"
	"radixdecluster/internal/join"
	"radixdecluster/internal/mem"
	"radixdecluster/internal/posjoin"
	"radixdecluster/internal/radix"
	"radixdecluster/internal/workload"
)

// ---------------------------------------------------------------------------
// One benchmark per paper figure: each iteration regenerates the
// figure's full data series at Quick scale. Use cmd/radixbench for
// the paper-scale tables.
// ---------------------------------------------------------------------------

func benchFigure(b *testing.B, id string) {
	b.Helper()
	r, err := experiments.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	cfg := experiments.Config{Quick: true, Seed: 42}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig7aDeclusterWindow(b *testing.B)  { benchFigure(b, "fig7a") }
func BenchmarkFig7bComponents(b *testing.B)       { benchFigure(b, "fig7b") }
func BenchmarkFig8DSMPostStrategies(b *testing.B) { benchFigure(b, "fig8") }
func BenchmarkFig9aRadixCluster(b *testing.B)     { benchFigure(b, "fig9a") }
func BenchmarkFig9bPartHashJoin(b *testing.B)     { benchFigure(b, "fig9b") }
func BenchmarkFig9cClustPosJoin(b *testing.B)     { benchFigure(b, "fig9c") }
func BenchmarkFig9dDecluster(b *testing.B)        { benchFigure(b, "fig9d") }
func BenchmarkFig9eLeftJive(b *testing.B)         { benchFigure(b, "fig9e") }
func BenchmarkFig9fRightJive(b *testing.B)        { benchFigure(b, "fig9f") }
func BenchmarkFig10aProjectivity(b *testing.B)    { benchFigure(b, "fig10a") }
func BenchmarkFig10bHitRate(b *testing.B)         { benchFigure(b, "fig10b") }
func BenchmarkFig10cCardinality(b *testing.B)     { benchFigure(b, "fig10c") }
func BenchmarkFig11Sparse(b *testing.B)           { benchFigure(b, "fig11") }
func BenchmarkFig12VarsizePages(b *testing.B)     { benchFigure(b, "fig12") }
func BenchmarkCalibrate(b *testing.B)             { benchFigure(b, "calib") }

// ---------------------------------------------------------------------------
// Operator-level benchmarks (per-tuple costs, -benchmem).
// ---------------------------------------------------------------------------

// benchN sizes the operator benchmarks so that columns exceed any
// contemporary LLC (the paper's "hard join" regime): 4M tuples =
// 16MB per column.
const benchN = 4 << 20

func benchDeclusterInput(b *testing.B, bits int) (*core.Clustered, []int32) {
	b.Helper()
	rng := rand.New(rand.NewPCG(1, 1))
	smaller := make([]OID, benchN)
	for i := range smaller {
		smaller[i] = OID(rng.IntN(benchN))
	}
	cl, err := core.ClusterForDecluster(smaller,
		radix.Opts{Bits: bits, Ignore: radix.IgnoreBits(benchN, bits)})
	if err != nil {
		b.Fatal(err)
	}
	vals := make([]int32, benchN)
	for i, o := range cl.SmallerOIDs {
		vals[i] = int32(o)
	}
	return cl, vals
}

// BenchmarkDecluster measures the core algorithm with the planned
// (cache-half) window — the paper's recommended configuration.
func BenchmarkDecluster(b *testing.B) {
	cl, vals := benchDeclusterInput(b, 8)
	window := core.PlanWindow(mem.Pentium4(), 4)
	b.SetBytes(benchN * 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Decluster(vals, cl.ResultPos, cl.Borders, window); err != nil {
			b.Fatal(err)
		}
	}
}

// Ablation: pure scatter (infinite window) — O(N) CPU, unbounded
// random writes.
func BenchmarkDeclusterAblationScatter(b *testing.B) {
	cl, vals := benchDeclusterInput(b, 8)
	b.SetBytes(benchN * 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.ScatterDecluster(vals, cl.ResultPos); err != nil {
			b.Fatal(err)
		}
	}
}

// Ablation: pure H-way heap merge — cache-friendly but O(N·log H) CPU.
func BenchmarkDeclusterAblationMerge(b *testing.B) {
	cl, vals := benchDeclusterInput(b, 8)
	b.SetBytes(benchN * 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.MergeDecluster(vals, cl.ResultPos, cl.Borders); err != nil {
			b.Fatal(err)
		}
	}
}

func benchPairs(b *testing.B) ([]OID, []int32) {
	b.Helper()
	rng := rand.New(rand.NewPCG(2, 2))
	heads := make([]OID, benchN)
	keys := make([]int32, benchN)
	for i := range heads {
		heads[i] = OID(i)
		keys[i] = int32(rng.Uint32() >> 1)
	}
	return heads, keys
}

func BenchmarkRadixClusterSinglePass(b *testing.B) {
	heads, keys := benchPairs(b)
	buf := [2][]uint64{make([]uint64, benchN)}
	b.SetBytes(benchN * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := radix.ClusterBUNsInto(buf, heads, keys, radix.Opts{Bits: 12}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRadixClusterTwoPass(b *testing.B) {
	heads, keys := benchPairs(b)
	buf := [2][]uint64{make([]uint64, benchN), make([]uint64, benchN)}
	b.SetBytes(benchN * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := radix.ClusterBUNsInto(buf, heads, keys, radix.Opts{Bits: 12, Passes: []int{6, 6}}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkClusterPairs and BenchmarkClusterOIDPairs time the
// Radix-Cluster layer alone at the repository benchmark's size (1 Mi
// tuples): the serial engine and the 2-worker morsel engine, at the
// join fan-out the planner picks there (6 bits) and at the first-level
// cap (12 bits). A tuple carries 8 payload bytes, so MB/s / 8 is
// Mtuples/s. ClusterPairs clusters a join input — since the engines
// do that into BUNs, through ClusterBUNs.
func benchCluster(b *testing.B, fanouts []int, op func(e *exec.Engine, o radix.Opts) error) {
	rt := exec.NewRuntimeOpts(exec.Options{Workers: 2})
	defer rt.Close()
	for _, workers := range []int{0, 2} {
		name := "serial"
		if workers > 0 {
			name = fmt.Sprintf("workers=%d", workers)
		}
		for _, bits := range fanouts {
			o := radix.Opts{Bits: bits}
			b.Run(fmt.Sprintf("%s/bits=%d", name, bits), func(b *testing.B) {
				b.ReportAllocs()
				b.SetBytes(clusterBenchN * 8)
				for i := 0; i < b.N; i++ {
					// An engine per iteration — the serial paper engine at
					// 0 workers, else a lease that returns the scatter
					// targets to the arena at Close, as a query's pipeline
					// does.
					e := exec.NewEngine(rt, workers)
					err := op(e, o)
					e.Close()
					if err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

const clusterBenchN = 1 << 20

func BenchmarkClusterPairs(b *testing.B) {
	heads, keys := benchPairs(b)
	heads, keys = heads[:clusterBenchN], keys[:clusterBenchN]
	benchCluster(b, []int{6, 12},
		func(e *exec.Engine, o radix.Opts) error { _, err := e.ClusterBUNs(heads, keys, o); return err })
}

func BenchmarkClusterOIDPairs(b *testing.B) {
	key, _ := benchPosJoinOIDs(b)
	key = key[:clusterBenchN]
	other := bat.Dense(clusterBenchN)
	benchCluster(b, []int{6, 12},
		func(e *exec.Engine, o radix.Opts) error { _, err := e.ClusterOIDPairs(key, other, o); return err })
}

// benchJoinSides is a 1 Mi ⋈ 1 Mi key–foreign-key join input: the
// larger keys hit the (unique) smaller keys at random.
func benchJoinSides(b *testing.B) (lo []OID, lk []int32, so []OID, sk []int32) {
	b.Helper()
	so, sk = bat.Dense(clusterBenchN), make([]int32, clusterBenchN)
	for i := range sk {
		sk[i] = int32(uint32(i) * 0x9e3779b1) // odd multiplier: a bijection
	}
	rng := rand.New(rand.NewPCG(4, 4))
	lo, lk = bat.Dense(clusterBenchN), make([]int32, clusterBenchN)
	for i := range lk {
		lk[i] = sk[rng.IntN(clusterBenchN)]
	}
	return lo, lk, so, sk
}

// BenchmarkPartitionedJoin times the whole join phase — both
// clusterings plus the per-partition build and probe — on either
// engine, at the planner's fan-out for this size and at 1 Ki-tuple
// partitions. MB/s / 8 is probe Mtuples/s.
func BenchmarkPartitionedJoin(b *testing.B) {
	lo, lk, so, sk := benchJoinSides(b)
	benchCluster(b, []int{6, 10},
		func(e *exec.Engine, o radix.Opts) error { _, err := e.PartitionedJoin(lo, lk, so, sk, o); return err })
}

// BenchmarkProbeBUNs times the per-partition kernel alone: build and
// probe of every partition pair of the preclustered 1 Mi ⋈ 1 Mi input,
// at 1 Ki- and 16 Ki-tuple partitions, into a reused join-index.
func BenchmarkProbeBUNs(b *testing.B) {
	lo, lk, so, sk := benchJoinSides(b)
	for _, c := range []struct {
		name string
		bits int
	}{{"part=1Ki", 10}, {"part=16Ki", 6}} {
		o := radix.Opts{Bits: c.bits}
		cl, err := radix.ClusterBUNsInto([2][]uint64{make([]uint64, len(lk))}, lo, lk, o)
		if err != nil {
			b.Fatal(err)
		}
		cs, err := radix.ClusterBUNsInto([2][]uint64{make([]uint64, len(sk))}, so, sk, o)
		if err != nil {
			b.Fatal(err)
		}
		out := &join.Index{Larger: make([]OID, 0, clusterBenchN), Smaller: make([]OID, 0, clusterBenchN)}
		var ts join.TableScratch
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(clusterBenchN * 8)
			for i := 0; i < b.N; i++ {
				out.Larger, out.Smaller = out.Larger[:0], out.Smaller[:0]
				for p := 0; p < 1<<c.bits; p++ {
					join.ProbeBUNs(cs.BUNs[cs.Offsets[p]:cs.Offsets[p+1]],
						cl.BUNs[cl.Offsets[p]:cl.Offsets[p+1]], uint(c.bits), out, &ts)
				}
				if out.Len() != clusterBenchN {
					b.Fatalf("%d matches, want %d", out.Len(), clusterBenchN)
				}
			}
		})
	}
}

// BenchmarkProbeImage is BenchmarkProbeBUNs for the kernel runtime
// queries run over join images: the same partitions as image hash
// columns (join.Image.Hashes), emitting image positions, at 256-, 1 Ki-
// and 16 Ki-tuple partitions. The smaller keys are a bijection, so all
// three legs apply: distinct=false walks every chain to its end
// (join.ProbeHashes), distinct=true is join.ProbeImage over a Distinct
// smaller image — the first-match probe compacted into the join-index —
// and first is join.ProbeFirst alone, one smaller position per probe
// and no larger one, what a key-FK partition of Engine.ProjectImages
// writes.
func BenchmarkProbeImage(b *testing.B) {
	_, lk, _, sk := benchJoinSides(b)
	for _, c := range []struct {
		name string
		bits int
	}{{"part=256", 12}, {"part=1Ki", 10}, {"part=16Ki", 6}} {
		o := radix.Opts{Bits: c.bits}
		lo, err := radix.KeyOffsets(lk, o)
		if err != nil {
			b.Fatal(err)
		}
		so, err := radix.KeyOffsets(sk, o)
		if err != nil {
			b.Fatal(err)
		}
		li := &join.Image{Hashes: radix.PermuteHashes(lk, o, lo), Offsets: lo}
		si := &join.Image{Hashes: radix.PermuteHashes(sk, o, so), Offsets: so}
		if !join.DistinctHashes(si, uint(c.bits)) {
			b.Fatal("the smaller keys are not distinct")
		}
		out := &join.Index{Larger: make([]OID, 0, clusterBenchN), Smaller: make([]OID, 0, clusterBenchN)}
		var ts join.TableScratch
		for _, leg := range []string{"distinct=false", "distinct=true", "first"} {
			si.Distinct = leg == "distinct=true"
			b.Run(c.name+"/"+leg, func(b *testing.B) {
				b.ReportAllocs()
				b.SetBytes(clusterBenchN * 8)
				for i := 0; i < b.N; i++ {
					out.Larger, out.Smaller = out.Larger[:0], out.Smaller[:0]
					hits := 0
					for p := 0; p < 1<<c.bits; p++ {
						if leg == "first" {
							hits += join.ProbeFirst(si.Hashes[so[p]:so[p+1]], li.Hashes[lo[p]:lo[p+1]], so[p], uint(c.bits), out.Smaller[lo[p]:lo[p+1]], &ts)
						} else {
							join.ProbeImage(li, si, p, uint(c.bits), out, &ts)
							hits = out.Len()
						}
					}
					if hits != clusterBenchN {
						b.Fatalf("%d matches, want %d", hits, clusterBenchN)
					}
				}
			})
		}
	}
}

// BenchmarkDecodeImageOrder decodes one 1 Mi payload column of the
// benchmark's relations (workload.PayloadValue) serially, block-encoded
// in base order — what a compressed plan's c/s larger side decodes — and
// in the image order of the planner's 1 Mi join clustering — what a
// compressed image-fed side decodes. The image order interleaves the
// oids of all partitions, so it encodes to a far larger ratio (reported)
// and decodes more slowly per value. MB/s / 4 is Mvalues/s.
func BenchmarkDecodeImageOrder(b *testing.B) {
	pr, err := workload.GenPair(workload.Params{N: clusterBenchN, Omega: 2, HitRate: 1, SelLarger: 1, SelSmaller: 1, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	keys, col := pr.Larger.Key(), pr.Larger.PayloadCol(1)
	o := radix.Opts{Bits: join.PlanBits(clusterBenchN, 4, mem.Pentium4().LLC().Size)}
	offs, err := radix.KeyOffsets(keys, o)
	if err != nil {
		b.Fatal(err)
	}
	dst := make([]int32, clusterBenchN)
	for _, c := range []struct {
		name string
		vals []int32
	}{{"order=base", col}, {"order=image", radix.PermuteInto(make([]int32, len(keys)), keys, col, o, offs)}} {
		enc, err := compress.EncodeBest(c.vals)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(clusterBenchN * 4)
			for i := 0; i < b.N; i++ {
				if err := enc.DecompressRangeInto(dst, 0, clusterBenchN); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(enc.Ratio(), "ratio")
		})
	}
}

func BenchmarkHashJoinNaive(b *testing.B) {
	lo, lk := benchPairs(b)
	so := make([]OID, benchN)
	sk := make([]int32, benchN)
	copy(so, lo)
	copy(sk, lk)
	b.SetBytes(benchN * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := join.HashJoin(lo, lk, so, sk); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHashJoinPartitioned(b *testing.B) {
	lo, lk := benchPairs(b)
	so := make([]OID, benchN)
	sk := make([]int32, benchN)
	copy(so, lo)
	copy(sk, lk)
	bits := join.PlanBits(benchN, 4, mem.Pentium4().LLC().Size)
	b.SetBytes(benchN * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// The serial paper engine, on buffers leased from the arena and
		// handed back at Close, as a query's pipeline does.
		e := exec.NewEngine(nil, 0)
		_, err := e.PartitionedJoin(lo, lk, so, sk, radix.Opts{Bits: bits})
		e.Close()
		if err != nil {
			b.Fatal(err)
		}
	}
}

func benchPosJoinOIDs(b *testing.B) ([]OID, []int32) {
	b.Helper()
	rng := rand.New(rand.NewPCG(3, 3))
	oids := make([]OID, benchN)
	for i := range oids {
		oids[i] = OID(rng.IntN(benchN))
	}
	col := make([]int32, benchN)
	for i := range col {
		col[i] = int32(i)
	}
	return oids, col
}

func BenchmarkPosJoinUnsorted(b *testing.B) {
	oids, col := benchPosJoinOIDs(b)
	out := make([]int32, benchN)
	b.SetBytes(benchN * 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := posjoin.FetchInto(out, col, oids); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPosJoinClustered(b *testing.B) {
	oids, col := benchPosJoinOIDs(b)
	h := mem.Pentium4()
	bits := radix.OptimalBits(benchN, 4, h.LLC().Size)
	pos := make([]OID, benchN)
	for i := range pos {
		pos[i] = OID(i)
	}
	cl, err := radix.ClusterOIDPairs(oids, pos,
		radix.Opts{Bits: bits, Ignore: radix.IgnoreBits(benchN, bits)})
	if err != nil {
		b.Fatal(err)
	}
	out := make([]int32, benchN)
	b.SetBytes(benchN * 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := posjoin.ClusteredInto(out, col, cl.Key, cl.Borders()); err != nil {
			b.Fatal(err)
		}
	}
}

// benchJoinQuery builds an n-tuple key/FK pair with one payload
// column per side for the end-to-end ProjectJoin benchmarks and the
// speedup test.
func benchJoinQuery(tb testing.TB, n int) JoinQuery {
	return benchJoinQueryOpts(tb, n)
}

func benchJoinQueryOpts(tb testing.TB, n int, opts ...RelationOption) JoinQuery {
	tb.Helper()
	rng := rand.New(rand.NewPCG(4, 4))
	keys := make([]int32, n)
	for i := range keys {
		keys[i] = int32(i)
	}
	rng.Shuffle(n, func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	payload := make([]int32, n)
	for i := range payload {
		payload[i] = int32(i)
	}
	mk := func(name string) *Relation {
		k := make([]int32, n)
		copy(k, keys)
		r, err := NewRelationOpts(name,
			[]Column{{Name: "key", Values: k}, {Name: "a", Values: payload}}, opts...)
		if err != nil {
			tb.Fatal(err)
		}
		return r
	}
	larger, smaller := mk("l"), mk("s")
	return JoinQuery{
		Larger: larger, Smaller: smaller,
		LargerKey: "key", SmallerKey: "key",
		LargerProject: []string{"a"}, SmallerProject: []string{"a"},
		Strategy: DSMPostDecluster,
	}
}

// BenchmarkProjectJoinParallel sweeps the morsel-driven executor's
// worker count on a 1M-tuple join (workers=0 is the serial paper-mode
// baseline), so one run shows parallel speedup. Each sub-benchmark
// reports gomaxprocs/cpus so its output carries the machine shape: on
// a single-core box the sweep degenerates to overhead measurement and
// multi-worker numbers must not be read as speedup (see
// TestParallelSpeedupMultiCore).
func BenchmarkProjectJoinParallel(b *testing.B) {
	const n = 1 << 20
	q := benchJoinQuery(b, n)
	for _, w := range []int{0, 1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			q.Parallelism = w
			b.SetBytes(n * 8)
			b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "gomaxprocs")
			b.ReportMetric(float64(runtime.NumCPU()), "cpus")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := ProjectJoin(q)
				if err != nil {
					b.Fatal(err)
				}
				res.Release()
			}
		})
	}
}

// TestParallelSpeedupMultiCore is the multi-worker speedup check that
// PR 1's benchmark note asked to gate on core count: it compares the
// serial paper mode against the 4-worker executor on a 1M-tuple join.
// On a single-core machine the comparison only measures scheduling
// overhead, so the threshold is skipped — but the ratio is measured
// and logged FIRST, so single-core CI runs still leave a trajectory
// data point instead of skipping silently.
func TestParallelSpeedupMultiCore(t *testing.T) {
	if testing.Short() {
		t.Skip("speedup measurement needs a full-size join")
	}
	if raceEnabled {
		t.Skip("race instrumentation distorts serial-vs-parallel timing")
	}
	cores := min(runtime.NumCPU(), runtime.GOMAXPROCS(0))
	const n = 1 << 20
	q := benchJoinQuery(t, n)
	measure := func(workers int) time.Duration {
		q.Parallelism = workers
		best := time.Duration(0)
		for i := 0; i < 3; i++ {
			start := time.Now()
			if _, err := ProjectJoin(q); err != nil {
				t.Fatal(err)
			}
			if d := time.Since(start); best == 0 || d < best {
				best = d
			}
		}
		return best
	}
	serial := measure(0)
	parallel := measure(4)
	speedup := float64(serial) / float64(parallel)
	t.Logf("cpus=%d gomaxprocs=%d serial=%v parallel(4)=%v speedup=%.2fx",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), serial, parallel, speedup)
	if cores <= 1 {
		t.Skipf("single-core box (NumCPU=%d GOMAXPROCS=%d): measured ratio logged above, threshold skipped",
			runtime.NumCPU(), runtime.GOMAXPROCS(0))
	}
	// Wall-clock assertions are opt-in (RADIX_ASSERT_SPEEDUP=1): even
	// on a quiet >= 4-core box, `go test ./...` runs package binaries
	// concurrently, so an unconditional threshold would flake. The
	// measurement itself is always logged above.
	if os.Getenv("RADIX_ASSERT_SPEEDUP") == "" || cores < 4 {
		return
	}
	if speedup < 1.2 {
		t.Errorf("4-worker speedup %.2fx below 1.2x on a %d-core machine", speedup, cores)
	}
}

// BenchmarkConcurrentProjectJoin is the shared-runtime trajectory
// benchmark: 4 concurrent same-source DSM post-projection queries per
// iteration on the runtime, which plans them u/u over the relations'
// join images — raw (compress=false) and compressed (compress=true:
// CompressionOn, each fetch decoding the image-order encodings one
// partition at a time); both legs report gomaxprocs/cpus so archived
// numbers carry the machine shape.
func BenchmarkConcurrentProjectJoin(b *testing.B) {
	const n = 256 << 10
	const queries = 4
	// compress=false/compress=true is the compressed-execution pair: the
	// same 4-query concurrent load raw and with CompressionOn over
	// block-compressed relations.
	for _, comp := range []bool{false, true} {
		b.Run(fmt.Sprintf("compress=%v", comp), func(b *testing.B) {
			var opts []RelationOption
			if comp {
				opts = append(opts, WithCompression())
			}
			q := benchJoinQueryOpts(b, n, opts...)
			q.Parallelism = 2
			if comp {
				q.Compression = CompressionOn
			}
			rt := NewRuntime(RuntimeConfig{MaxConcurrentQueries: queries})
			defer rt.Close()
			q.Runtime = rt
			// Build the join images (and their encodings) outside the timer.
			res, err := ProjectJoin(q)
			if err != nil {
				b.Fatal(err)
			}
			if res.Compressed != comp {
				b.Fatalf("plan %s: Compressed = %v, want %v", res.Plan, res.Compressed, comp)
			}
			res.Release()
			b.SetBytes(int64(queries) * n * 8)
			b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "gomaxprocs")
			b.ReportMetric(float64(runtime.NumCPU()), "cpus")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var wg sync.WaitGroup
				for j := 0; j < queries; j++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						res, err := ProjectJoin(q)
						if err != nil {
							b.Error(err)
							return
						}
						res.Release()
					}()
				}
				wg.Wait()
			}
		})
	}
}

// BenchmarkProjectJoinImages is one query alone on a 2-worker runtime:
// 1 Mi ⋈ 1 Mi, π = 2 per side, the runtime's DSM post-projection (u/u
// over join images, built outside the timer). hit=1 is key-FK: each
// partition's rows are written in place, and the larger columns are
// the join image's own (raw) or decoded into the result (compressed).
// Its smaller keys are distinct, so every probe stops at its first
// match and each partition's key-FK test is a count. hit=3 (duplicate
// smaller keys: its image is not Distinct, and every chain is walked
// to its end) and hit=0.3 (distinct, but with misses) are not key-FK,
// so they pay the fallback — the stitched join-index and two
// per-partition fetches — after the probe.
func BenchmarkProjectJoinImages(b *testing.B) {
	const n, pi = 1 << 20, 2
	rt := NewRuntime(RuntimeConfig{Workers: 2})
	defer rt.Close()
	for _, leg := range []struct {
		hit  float64
		comp Compression
	}{{1, CompressionOff}, {1, CompressionOn}, {3, CompressionOff}, {0.3, CompressionOff}} {
		repr := "raw"
		if leg.comp == CompressionOn {
			repr = "compressed"
		}
		b.Run(fmt.Sprintf("hit=%g/%s", leg.hit, repr), func(b *testing.B) {
			larger, smaller := compressedRelations(b,
				workload.Params{N: n, Omega: pi + 1, HitRate: leg.hit, SelLarger: 1, SelSmaller: 1, Seed: 89}, pi)
			q := JoinQuery{
				Larger: larger, Smaller: smaller, LargerKey: "key", SmallerKey: "key",
				LargerProject: projNames(pi), SmallerProject: projNames(pi),
				Parallelism: 2, Runtime: rt, Compression: leg.comp,
			}
			// Build the join images (and their encodings) outside the timer.
			res, err := ProjectJoin(q)
			if err != nil {
				b.Fatal(err)
			}
			if res.Compressed != (leg.comp == CompressionOn) {
				b.Fatalf("plan %s: Compressed = %v", res.Plan, res.Compressed)
			}
			res.Release()
			b.SetBytes(n * 8)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := ProjectJoin(q)
				if err != nil {
					b.Fatal(err)
				}
				res.Release()
			}
		})
	}
}

// End-to-end public API benchmark: the paper's query through the
// winning strategy.
func BenchmarkProjectJoinDSMPost(b *testing.B) {
	const n = 64 << 10
	rng := rand.New(rand.NewPCG(4, 4))
	keys := make([]int32, n)
	for i := range keys {
		keys[i] = int32(i)
	}
	rng.Shuffle(n, func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	payload := make([]int32, n)
	for i := range payload {
		payload[i] = int32(i)
	}
	mk := func(name string) *Relation {
		k := make([]int32, n)
		copy(k, keys)
		r, err := NewRelation(name, Column{Name: "key", Values: k}, Column{Name: "a", Values: payload})
		if err != nil {
			b.Fatal(err)
		}
		return r
	}
	larger, smaller := mk("l"), mk("s")
	q := JoinQuery{
		Larger: larger, Smaller: smaller,
		LargerKey: "key", SmallerKey: "key",
		LargerProject: []string{"a"}, SmallerProject: []string{"a"},
		Strategy: DSMPostDecluster,
	}
	b.SetBytes(n * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ProjectJoin(q); err != nil {
			b.Fatal(err)
		}
	}
}
