package exec

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"radixdecluster/internal/core"
	"radixdecluster/internal/join"
	"radixdecluster/internal/nsm"
	"radixdecluster/internal/radix"
)

// randRows builds width-wide records whose key column draws from
// domain (skewed when asked) and whose payload identifies the record.
func randRows(seed uint64, n, width int, skewed bool) []int32 {
	keys := randVals(seed, n, skewed)
	rows := make([]int32, n*width)
	for i := 0; i < n; i++ {
		rows[i*width] = keys[i] % int32(n)
		for c := 1; c < width; c++ {
			rows[i*width+c] = int32(i*width + c)
		}
	}
	return rows
}

func testRelation(seed uint64, n, width int) *nsm.Relation {
	rel := nsm.New("rel", n, width)
	copy(rel.Data, randRows(seed, n, width, false))
	return rel
}

func TestClusterRowsMatchesSerial(t *testing.T) {
	const width = 3
	for _, skewed := range []bool{false, true} {
		rows := randRows(21, testN, width, skewed)
		for _, o := range []radix.Opts{
			{Bits: 4},
			{Bits: 10, Passes: []int{5, 5}},
			{Bits: 14}, // a two-pass runtime split
		} {
			want, err := serialEngine(t).ClusterRows(rows, width, 0, o)
			if err != nil {
				t.Fatal(err)
			}
			withLeases(t, func(t *testing.T, p *Engine) {
				got, err := p.ClusterRows(rows, width, 0, o)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("workers=%d bits=%d skewed=%v: parallel rows clustering differs from serial",
						p.Workers(), o.Bits, skewed)
				}
			})
		}
	}
}

func TestPartitionedRowsMatchesSerial(t *testing.T) {
	const lw, sw = 3, 2
	larger := randRows(22, testN, lw, false)
	smaller := randRows(23, testN/2, sw, true)
	for _, o := range []radix.Opts{{Bits: 0}, {Bits: 6}, {Bits: 13}} {
		want, err := serialEngine(t).PartitionedRowsJoin(larger, lw, 0, smaller, sw, 0, o)
		if err != nil {
			t.Fatal(err)
		}
		withLeases(t, func(t *testing.T, p *Engine) {
			got, err := p.PartitionedRowsJoin(larger, lw, 0, smaller, sw, 0, o)
			if err != nil {
				t.Fatal(err)
			}
			if got.Width != want.Width || !slices.Equal(got.Rows, want.Rows) {
				t.Fatalf("workers=%d bits=%d: parallel rows join differs from serial", p.Workers(), o.Bits)
			}
		})
	}
}

func TestHashRowsMatchesSerial(t *testing.T) {
	const lw, sw = 2, 3
	larger := randRows(24, testN, lw, false)
	smaller := randRows(25, testN/4, sw, true)
	want, err := serialEngine(t).HashRowsJoin(larger, lw, 0, smaller, sw, 0)
	if err != nil {
		t.Fatal(err)
	}
	withLeases(t, func(t *testing.T, p *Engine) {
		got, err := p.HashRowsJoin(larger, lw, 0, smaller, sw, 0)
		if err != nil {
			t.Fatal(err)
		}
		if got.Width != want.Width || !slices.Equal(got.Rows, want.Rows) {
			t.Fatalf("workers=%d: parallel hash rows join differs from serial", p.Workers())
		}
	})
}

func TestJivePhasesMatchSerial(t *testing.T) {
	const omega = 3
	left := testRelation(26, testN, omega)
	right := testRelation(27, testN, omega)
	// A left-sorted join-index with random right matches.
	ji := &join.Index{Larger: make([]OID, testN), Smaller: randOIDs(28, testN, testN)}
	for i := range ji.Larger {
		ji.Larger[i] = OID(i)
	}
	leftCols, rightCols := []int{1, 2}, []int{2}
	for _, bits := range []int{0, 3, 8, 14} { // 14 > maxFirstPassBits: one chunk
		se := serialEngine(t)
		wantL, err := se.JiveLeft(ji, left, leftCols, right.Len(), bits)
		if err != nil {
			t.Fatal(err)
		}
		wantR, err := se.JiveRight(wantL, right, rightCols)
		if err != nil {
			t.Fatal(err)
		}
		withLeases(t, func(t *testing.T, p *Engine) {
			gotL, err := p.JiveLeft(ji, left, leftCols, right.Len(), bits)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(gotL, wantL) {
				t.Fatalf("workers=%d bits=%d: parallel left Jive differs from serial", p.Workers(), bits)
			}
			gotR, err := p.JiveRight(gotL, right, rightCols)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(gotR, wantR) {
				t.Fatalf("workers=%d bits=%d: parallel right Jive differs from serial", p.Workers(), bits)
			}
		})
	}
}

func TestEngineDeclusterRowsIntoMatchesSerial(t *testing.T) {
	const width, outWidth, outOff = 2, 3, 1
	smaller := randOIDs(29, testN, testN)
	cl, err := core.ClusterForDecluster(smaller, radix.Opts{Bits: 6, Ignore: radix.IgnoreBits(testN, 6)})
	if err != nil {
		t.Fatal(err)
	}
	values := make([]int32, testN*width)
	for i := range values {
		values[i] = int32(i)
	}
	for _, window := range []int{1, 64, testN} {
		want := make([]int32, testN*outWidth)
		if err := serialEngine(t).DeclusterRowsInto(want, outWidth, outOff, values, width, cl.ResultPos, cl.Borders, window); err != nil {
			t.Fatal(err)
		}
		rt := testRuntime(t)
		for _, workers := range workerCounts {
			e := NewEngine(rt, workers)
			got := make([]int32, testN*outWidth)
			err := e.DeclusterRowsInto(got, outWidth, outOff, values, width, cl.ResultPos, cl.Borders, window)
			e.Close()
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("workers=%d window=%d: parallel row decluster differs from serial", workers, window)
			}
		}
	}
}

// TestEngineScansMatchSerial covers the chunked NSM scan / gather /
// stitch stages across engines.
func TestEngineScansMatchSerial(t *testing.T) {
	const omega = 4
	rel := testRelation(30, testN, omega)
	oids := randOIDs(31, testN/2, testN)
	cols := []int{2, 0}
	a := testRelation(32, testN/4, 2)
	b := testRelation(33, testN/4, 1)
	se := serialEngine(t)
	wantCol, err := se.ScanColumn(rel, 1)
	if err != nil {
		t.Fatal(err)
	}
	wantProj, err := se.ScanProject(rel, "w", cols)
	if err != nil {
		t.Fatal(err)
	}
	wantGather, err := se.GatherProject(rel, "g", oids, cols)
	if err != nil {
		t.Fatal(err)
	}
	wantAppend, err := se.AppendFields("ab", a, b)
	if err != nil {
		t.Fatal(err)
	}
	withEngines(t, func(t *testing.T, e *Engine) {
		workers := e.Workers()
		if got, err := e.ScanColumn(rel, 1); err != nil || !reflect.DeepEqual(got, wantCol) {
			t.Fatalf("workers=%d: ScanColumn differs from serial (%v)", workers, err)
		}
		if got, err := e.ScanProject(rel, "w", cols); err != nil || !reflect.DeepEqual(got, wantProj) {
			t.Fatalf("workers=%d: ScanProject differs from serial (%v)", workers, err)
		}
		got, err := e.GatherProject(rel, "g", oids, cols)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, wantGather) {
			t.Fatalf("workers=%d: GatherProject differs from serial", workers)
		}
		gotAB, err := e.AppendFields("ab", a, b)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(gotAB, wantAppend) {
			t.Fatalf("workers=%d: AppendFields differs from serial", workers)
		}
		if _, err := e.AppendFields("bad", a, testRelation(34, testN/4+1, 1)); err == nil {
			t.Fatalf("workers=%d: AppendFields accepted sides of unequal cardinality", workers)
		}
		if e.comp.snapshot().Cols != 0 {
			t.Fatalf("workers=%d: raw scans accounted as a decode", workers)
		}
	})
}

// TestPipelinePhases checks the pipeline contract: phases run in
// order, time lands in the declared kind buckets, errors abort the
// run, and the serial engine reports 0 workers.
func TestPipelinePhases(t *testing.T) {
	pl := NewPipeline(nil, 0)
	defer pl.Close()
	if pl.Engine().Workers() != 0 {
		t.Fatalf("serial pipeline reports %d workers", pl.Engine().Workers())
	}
	var order []string
	pl.Then(PhaseScan, "a", func(e *Engine) error {
		order = append(order, "a")
		return nil
	})
	pl.Then(PhaseJoin, "b", func(e *Engine) error {
		order = append(order, "b")
		return nil
	})
	tm, err := pl.Execute()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(order, []string{"a", "b"}) {
		t.Fatalf("phases ran in order %v", order)
	}
	if tm.Total <= 0 {
		t.Fatal("total time not recorded")
	}
	var sum int64
	for _, d := range tm.ByKind {
		sum += int64(d)
	}
	if sum > int64(tm.Total) {
		t.Fatalf("phase sum %d exceeds total %d", sum, tm.Total)
	}

	boom := errors.New("boom")
	pf := NewPipeline(testRuntime(t), 2)
	defer pf.Close()
	if pf.Engine().Workers() != 2 {
		t.Fatalf("parallel pipeline reports %d workers", pf.Engine().Workers())
	}
	ran := 0
	pf.Then(PhaseScan, "ok", func(e *Engine) error { ran++; return nil })
	pf.Then(PhaseJoin, "fail", func(e *Engine) error { return boom })
	pf.Then(PhaseDecluster, "never", func(e *Engine) error { ran++; return nil })
	if _, err := pf.Execute(); err != boom {
		t.Fatalf("pipeline error = %v, want boom", err)
	}
	if ran != 1 {
		t.Fatalf("%d phases ran after the failing one", ran-1)
	}
}

// TestPhaseKindStrings pins the phase vocabulary.
func TestPhaseKindStrings(t *testing.T) {
	for k := PhaseKind(0); k < NumPhaseKinds; k++ {
		if k.String() == "unknown" {
			t.Fatalf("kind %d has no name", k)
		}
	}
	if fmt.Sprint(NumPhaseKinds) == "" {
		t.Fatal("unreachable")
	}
}
