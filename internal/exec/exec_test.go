package exec

import (
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"

	"radixdecluster/internal/bat"
	"radixdecluster/internal/core"
	"radixdecluster/internal/join"
	"radixdecluster/internal/mem"
	"radixdecluster/internal/posjoin"
	"radixdecluster/internal/radix"
)

// testN is large enough to clear MinParallelN so the parallel paths
// actually run.
const testN = 1 << 16

// heavyN is testN for the tests the race detector makes expensive —
// skewed partitioned joins, whose match count is quadratic in the
// input, and gathers through compressed columns, which decode a block
// per random oid under instrumented loads. Under -race it is
// 2*MinParallelN, the smallest size at which every input these tests
// build (down to the half-size join side) still clears MinParallelN,
// so the same parallel paths run on a quarter of the join work.
func heavyN() int {
	if raceEnabled {
		return 2 * MinParallelN
	}
	return testN
}

// workerCounts are the NOMINAL parallelisms the equivalence tests
// sweep. Every engine is a lease on a 2-worker test runtime, so nominal
// 3, 4 and 8 run on fewer real workers than they name — exactly the
// contract: output bytes follow the nominal count, never the runtime's
// size.
var workerCounts = []int{1, 2, 3, 4, 8}

// testRuntime returns a 2-worker runtime that is closed with the test.
func testRuntime(t testing.TB) *Runtime {
	t.Helper()
	rt := NewRuntimeOpts(Options{Workers: 2})
	t.Cleanup(rt.Close)
	return rt
}

// serialEngine is the serial paper engine, the equivalence tests'
// reference: it runs the substrate's caller-buffer forms on leased
// buffers. It is closed with the test, so its results stay readable
// until then.
func serialEngine(t testing.TB) *Engine {
	t.Helper()
	e := NewEngine(nil, 0)
	t.Cleanup(e.Close)
	return e
}

// withLeases runs f on a fresh lease per nominal worker count (the
// serial engine is the caller's oracle; withEngines sweeps it too).
func withLeases(t *testing.T, f func(t *testing.T, e *Engine)) {
	t.Helper()
	rt := testRuntime(t)
	for _, w := range workerCounts {
		e := NewEngine(rt, w)
		t.Run("", func(t *testing.T) { f(t, e) })
		e.Close()
	}
}

func randOIDs(seed uint64, n, domain int) []OID {
	rng := rand.New(rand.NewPCG(seed, 7))
	out := make([]OID, n)
	for i := range out {
		out[i] = OID(rng.IntN(domain))
	}
	return out
}

func randVals(seed uint64, n int, skewed bool) []int32 {
	rng := rand.New(rand.NewPCG(seed, 11))
	out := make([]int32, n)
	for i := range out {
		if skewed && i%4 != 0 {
			out[i] = int32(rng.IntN(64)) // heavy hitters → skewed partitions
		} else {
			out[i] = int32(rng.Uint32() >> 1)
		}
	}
	return out
}

func TestPoolRunCoversAllTasks(t *testing.T) {
	withLeases(t, func(t *testing.T, p *Engine) {
		hits := make([]int32, 10_000)
		p.run(len(hits), func(_, task int, _ *Scratch) { hits[task]++ })
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("task %d executed %d times", i, h)
			}
		}
	})
}

func TestChunksTile(t *testing.T) {
	for _, n := range []int{1, 7, 100, testN} {
		for _, k := range []int{1, 3, 8, 200} {
			chunks := make([]Range, min(k, n))
			splitRange(chunks, n)
			pos := 0
			for _, c := range chunks {
				if c.Lo != pos || c.Len() < n/len(chunks) || c.Len() > n/len(chunks)+1 {
					t.Fatalf("splitRange(%d into %d): bad range %+v at pos %d", n, len(chunks), c, pos)
				}
				pos = c.Hi
			}
			if pos != n {
				t.Fatalf("splitRange(%d into %d): covers %d items", n, len(chunks), pos)
			}
		}
	}
	if chunks := NewEngine(nil, 0).chunksFor(0); chunks != nil {
		t.Fatalf("chunksFor(0) = %v, want no chunks", chunks)
	}
}

// TestClusterBUNsMatchesSerial checks byte-identity of the parallel
// join-input clustering against the serial engine's
// (radix.ClusterBUNsInto) across bit widths (including the two-level
// B > maxFirstPassBits path) and skew.
func TestClusterBUNsMatchesSerial(t *testing.T) {
	heads := randOIDs(1, testN, testN)
	for _, skewed := range []bool{false, true} {
		vals := randVals(2, testN, skewed)
		for _, o := range []radix.Opts{
			{Bits: 4},
			{Bits: 8, Passes: []int{4, 4}},
			{Bits: 12},
			{Bits: 14}, // two-level parallel path
			{Bits: 17, Passes: []int{9, 8}},
		} {
			want, err := serialEngine(t).ClusterBUNs(heads, vals, o)
			if err != nil {
				t.Fatal(err)
			}
			withLeases(t, func(t *testing.T, p *Engine) {
				got, err := p.ClusterBUNs(heads, vals, o)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("workers=%d bits=%d skewed=%v: parallel clustering differs from serial",
						p.Workers(), o.Bits, skewed)
				}
			})
		}
	}
}

func TestClusterOIDPairsMatchesSerial(t *testing.T) {
	key := randOIDs(3, testN, testN)
	other := randOIDs(4, testN, testN)
	for _, o := range []radix.Opts{
		{Bits: 6, Ignore: 10},
		{Bits: 10, Ignore: 6},
		{Bits: 16, Ignore: 0}, // full sort via the two-level path
	} {
		want, err := radix.ClusterOIDPairs(key, other, o)
		if err != nil {
			t.Fatal(err)
		}
		withLeases(t, func(t *testing.T, p *Engine) {
			got, err := p.ClusterOIDPairs(key, other, o)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("workers=%d opts=%+v: parallel clustering differs from serial", p.Workers(), o)
			}
		})
	}
}

func TestSortOIDPairsMatchesSerial(t *testing.T) {
	key := randOIDs(5, testN, testN)
	other := randOIDs(6, testN, testN)
	h := mem.Pentium4()
	want, err := radix.SortOIDPairs(key, other, h)
	if err != nil {
		t.Fatal(err)
	}
	withLeases(t, func(t *testing.T, p *Engine) {
		got, err := p.SortOIDPairs(key, other, h)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: parallel sort differs from serial", p.Workers())
		}
	})
}

// testImage is the join image of an [oid, key] input — its key hashes
// and offsets as a relation holds them — with one column, the oids in
// image order.
func testImage(t *testing.T, oids []OID, keys []int32, o radix.Opts) *Image {
	t.Helper()
	offs, err := radix.KeyOffsets(keys, o)
	if err != nil {
		t.Fatal(err)
	}
	col := make([]int32, len(oids))
	for i, oid := range radix.PermuteInto(make([]OID, len(keys)), keys, oids, o, offs) {
		col[i] = int32(oid)
	}
	return &Image{Image: join.Image{Hashes: radix.PermuteHashes(keys, o, offs), Offsets: offs}, Cols: [][]int32{col}}
}

func TestPartitionedJoinMatchesSerial(t *testing.T) {
	n := heavyN()
	for _, skewed := range []bool{false, true} {
		lo := randOIDs(7, n, n)
		lk := randVals(8, n, skewed)
		so := randOIDs(9, n/2, n)
		sk := make([]int32, n/2)
		copy(sk, lk[:n/2]) // guarantee matches
		for _, o := range []radix.Opts{{Bits: 0}, {Bits: 6}, {Bits: 13}} {
			want, err := serialEngine(t).PartitionedJoin(lo, lk, so, sk, o)
			if err != nil {
				t.Fatal(err)
			}
			// The projection over join images — inputs clustered once
			// outside the engine — of the oids kept in image order must
			// name the same sequence.
			cl, cs := testImage(t, lo, lk, o), testImage(t, so, sk, o)
			withLeases(t, func(t *testing.T, p *Engine) {
				got, err := p.PartitionedJoin(lo, lk, so, sk, o)
				if err != nil {
					t.Fatal(err)
				}
				pr, err := p.ProjectImages(cl, cs, uint(o.Bits))
				if err != nil {
					t.Fatal(err)
				}
				probed := &join.Index{Larger: make([]OID, pr.N), Smaller: make([]OID, pr.N)}
				for i := range pr.N {
					probed.Larger[i], probed.Smaller[i] = OID(pr.Larger[0][i]), OID(pr.Smaller[0][i])
				}
				// slices.Equal, not reflect.DeepEqual: skew makes these
				// join-indexes millions of oids long, and DeepEqual's
				// per-element reflection was most of this package's time
				// under the race detector.
				for op, ix := range map[string]*join.Index{"PartitionedJoin": got, "ProjectImages": probed} {
					if !slices.Equal(ix.Larger, want.Larger) || !slices.Equal(ix.Smaller, want.Smaller) {
						t.Fatalf("%s workers=%d bits=%d skewed=%v: parallel join-index differs from serial (%d vs %d matches)",
							op, p.Workers(), o.Bits, skewed, ix.Len(), want.Len())
					}
				}
			})
		}
	}
}

// TestFetchManyMatchesSerial holds the one fetch operator to the
// paper's posjoin.FetchInto, column by column, on every engine.
func TestFetchManyMatchesSerial(t *testing.T) {
	oids := randOIDs(10, testN, testN)
	cols := make([][]int32, 3)
	want := make([][]int32, len(cols))
	for c := range cols {
		cols[c] = randVals(uint64(11+c), testN, false)
		want[c] = make([]int32, testN)
		if err := posjoin.FetchInto(want[c], cols[c], oids); err != nil {
			t.Fatal(err)
		}
	}
	// Out-of-range oids must surface the serial error.
	bad := make([]OID, testN)
	copy(bad, oids)
	bad[testN-1] = OID(testN + 5)
	_, wantErr := serialEngine(t).FetchMany(cols, bad)
	if wantErr == nil {
		t.Fatal("serial engine accepted an out-of-range oid")
	}
	withEngines(t, func(t *testing.T, e *Engine) {
		got, err := e.FetchMany(cols, oids)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.EqualFunc(got, want, slices.Equal[[]int32]) {
			t.Fatalf("workers=%d: fetch differs from posjoin", e.Workers())
		}
		if e.comp.snapshot().Cols != 0 {
			t.Fatalf("workers=%d: a raw fetch accounted as a decode", e.Workers())
		}
		if _, err := e.FetchMany(cols, bad); err == nil || err.Error() != wantErr.Error() {
			t.Fatalf("workers=%d: out-of-range error %v, want %v", e.Workers(), err, wantErr)
		}
	})
}

func clusteredFixture(t *testing.T, bits int) (*core.Clustered, []int32, []int32) {
	t.Helper()
	smaller := randOIDs(12, testN, testN)
	cl, err := core.ClusterForDecluster(smaller,
		radix.Opts{Bits: bits, Ignore: radix.IgnoreBits(testN, bits)})
	if err != nil {
		t.Fatal(err)
	}
	col := randVals(13, testN, false)
	clustered := make([]int32, testN)
	if err := posjoin.ClusteredInto(clustered, col, cl.SmallerOIDs, cl.Borders); err != nil {
		t.Fatal(err)
	}
	return cl, col, clustered
}

// TestClusteredMatchesSerial holds the one clustered fetch to
// posjoin.ClusteredInto on every engine.
func TestClusteredMatchesSerial(t *testing.T) {
	cl, col, want := clusteredFixture(t, 8)
	withEngines(t, func(t *testing.T, e *Engine) {
		got, err := e.Clustered(col, cl.SmallerOIDs, cl.Borders)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("workers=%d: clustered fetch differs from posjoin", e.Workers())
		}
		if _, err := e.Clustered(col, cl.SmallerOIDs, cl.Borders[1:]); err == nil {
			t.Fatalf("workers=%d: borders that do not tile the oids accepted", e.Workers())
		}
	})
}

func TestDeclusterMatchesSerial(t *testing.T) {
	for _, bits := range []int{2, 8} {
		cl, _, clustered := clusteredFixture(t, bits)
		window := core.PlanWindow(mem.Pentium4(), 4)
		want, err := core.Decluster(clustered, cl.ResultPos, cl.Borders, window)
		if err != nil {
			t.Fatal(err)
		}
		withLeases(t, func(t *testing.T, p *Engine) {
			// Identity must hold for any per-worker window size: the
			// engine divides the planned window by the nominal count.
			got, err := p.Decluster(clustered, cl.ResultPos, cl.Borders, window)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("workers=%d bits=%d: parallel decluster differs from serial", p.Workers(), bits)
			}
		})
	}
}

func TestDeclusterRejectsBadInput(t *testing.T) {
	p := NewEngine(testRuntime(t), 2)
	defer p.Close()
	vals := make([]int32, 8)
	ids := make([]OID, 7)
	if _, err := p.Decluster(vals, ids, nil, 4); err == nil {
		t.Fatal("missing length-mismatch error")
	}
	ids = make([]OID, 8)
	if _, err := p.Decluster(vals, ids, []bat.Border{{Start: 0, End: 8}}, 0); err == nil {
		t.Fatal("missing bad-window error")
	}
}

// TestSerialFallbackPredicate states the one predicate every operator
// tests first (Engine.serial): a nominal-1 lease and an input one short
// of MinParallelN submit no morsel — the paper's code runs on the
// caller's goroutine — while the fetch operators still draw their
// output from the lease; at MinParallelN a nominal-2 lease submits.
func TestSerialFallbackPredicate(t *testing.T) {
	const full = MinParallelN
	oids, other := randOIDs(50, full, full), randOIDs(51, full, full)
	vals := randVals(52, full, false)
	rows := randRows(53, full, 2, false)
	rel := testRelation(54, full, 2)
	cl, err := core.ClusterForDecluster(oids, radix.Opts{Bits: 4, Ignore: radix.IgnoreBits(full, 4)})
	if err != nil {
		t.Fatal(err)
	}
	sorted := make([]OID, full)
	for i := range sorted {
		sorted[i] = OID(i)
	}
	h := mem.Pentium4()
	rt := testRuntime(t)
	for _, op := range []struct {
		name   string
		leased bool // draws a buffer from the lease even when it runs serially
		run    func(e *Engine, n int) error
	}{
		{"ClusterBUNs", false, func(e *Engine, n int) error {
			_, err := e.ClusterBUNs(oids[:n], vals[:n], radix.Opts{Bits: 4})
			return err
		}},
		{"ClusterOIDPairs", false, func(e *Engine, n int) error {
			_, err := e.ClusterOIDPairs(oids[:n], other[:n], radix.Opts{Bits: 4})
			return err
		}},
		{"SortOIDPairs", false, func(e *Engine, n int) error {
			_, err := e.SortOIDPairs(oids[:n], other[:n], h)
			return err
		}},
		{"ClusterRows", false, func(e *Engine, n int) error {
			_, err := e.ClusterRows(rows[:2*n], 2, 0, radix.Opts{Bits: 4})
			return err
		}},
		// The joins' cardinality is both inputs together.
		{"PartitionedJoin", false, func(e *Engine, n int) error {
			_, err := e.PartitionedJoin(oids[:n-n/2], vals[:n-n/2], other[:n/2], vals[:n/2], radix.Opts{Bits: 4})
			return err
		}},
		{"ProjectImages", false, func(e *Engine, n int) error {
			o := radix.Opts{Bits: 4}
			_, err := e.ProjectImages(testImage(t, oids[:n-n/2], vals[:n-n/2], o), testImage(t, other[:n/2], vals[:n/2], o), uint(o.Bits))
			return err
		}},
		{"PartitionedRowsJoin", false, func(e *Engine, n int) error {
			_, err := e.PartitionedRowsJoin(rows[:2*(n-n/2)], 2, 0, rows[:2*(n/2)], 2, 0, radix.Opts{Bits: 4})
			return err
		}},
		{"HashRowsJoin", false, func(e *Engine, n int) error {
			_, err := e.HashRowsJoin(rows[:2*(n-n/2)], 2, 0, rows[:2*(n/2)], 2, 0)
			return err
		}},
		{"JiveLeft+JiveRight", false, func(e *Engine, n int) error {
			ji := &join.Index{Larger: sorted[:n], Smaller: oids[:n]}
			lr, err := e.JiveLeft(ji, rel, []int{1}, full, 3)
			if err != nil {
				return err
			}
			_, err = e.JiveRight(lr, rel, []int{1})
			return err
		}},
		{"FetchMany", true, func(e *Engine, n int) error {
			_, err := e.FetchMany([][]int32{vals}, oids[:n])
			return err
		}},
		{"Clustered", true, func(e *Engine, n int) error {
			_, err := e.Clustered(vals, oids[:n], []bat.Border{{Start: 0, End: n}})
			return err
		}},
		{"Decluster", false, func(e *Engine, n int) error {
			if n != full { // the clustering is a permutation of [0, full)
				_, err := e.Decluster(vals[:n], sorted[:n], []bat.Border{{Start: 0, End: n}}, 64)
				return err
			}
			_, err := e.Decluster(vals, cl.ResultPos, cl.Borders, 64)
			return err
		}},
	} {
		for _, c := range []struct {
			workers, n int
			parallel   bool
		}{{2, full - 1, false}, {1, full, false}, {2, full, true}} {
			e := NewEngine(rt, c.workers)
			if err := op.run(e, c.n); err != nil {
				t.Fatalf("%s nominal %d n=%d: %v", op.name, c.workers, c.n, err)
			}
			tasks, acquired := e.sched.stats().Tasks(), e.memStats().Acquired
			e.Close()
			if (tasks > 0) != c.parallel {
				t.Errorf("%s nominal %d n=%d: %d morsels submitted, want parallel=%v", op.name, c.workers, c.n, tasks, c.parallel)
			}
			if (c.parallel || op.leased) && acquired == 0 {
				t.Errorf("%s nominal %d n=%d: nothing drawn from the lease", op.name, c.workers, c.n)
			}
		}
	}
}

func TestGroupBordersTile(t *testing.T) {
	borders := bat.BordersFromOffsets([]int{0, 5, 5, 100, 180, 256})
	for _, k := range []int{1, 2, 7, 100} {
		groups := groupBorders(borders, k, 256)
		pos := 0
		for _, g := range groups {
			if g.Lo != pos {
				t.Fatalf("k=%d: group %+v does not continue at %d", k, g, pos)
			}
			pos = g.Hi
		}
		if pos != len(borders) {
			t.Fatalf("k=%d: groups cover %d of %d borders", k, pos, len(borders))
		}
	}
}

// TestConcurrentStress drives all operators once per worker count with
// the race detector in mind (CI runs this package under -race).
func TestConcurrentStress(t *testing.T) {
	p := NewEngine(testRuntime(t), 8)
	defer p.Close()
	n := heavyN()
	heads := randOIDs(20, n, n)
	vals := randVals(21, n, true)
	for i := 0; i < 3; i++ {
		if _, err := p.ClusterBUNs(heads, vals, radix.Opts{Bits: 14}); err != nil {
			t.Fatal(err)
		}
		if _, err := p.PartitionedJoin(heads, vals, heads, vals, radix.Opts{Bits: 8}); err != nil {
			t.Fatal(err)
		}
	}
}
