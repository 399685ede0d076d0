package costmodel_test

import (
	"testing"

	rd "radixdecluster"
	"radixdecluster/internal/costmodel"
)

// TestModelEvaluatedOnlyWhenItsAnswerIsUsed pins the planner's laziness
// rule (strategy.Config.decide): a query consults the cost model — and
// so pays for its calibration probes — only under CompressionAuto with
// an encoding present. The serial paper mode, an explicit worker count,
// AutoParallelism and forced compression evaluate nothing. The
// probes are memoized per hierarchy and per scheme, so on a hierarchy
// no other test plans with, the memo's entry count shows whether one
// ran.
func TestModelEvaluatedOnlyWhenItsAnswerIsUsed(t *testing.T) {
	const n = 32 << 10
	key, pay := make([]int32, n), make([]int32, n)
	for i := range key {
		key[i], pay[i] = int32(i), int32(i%97)
	}
	mk := func(name string) *rd.Relation {
		r, err := rd.NewRelationOpts(name, []rd.Column{{Name: "key", Values: key}, {Name: "a1", Values: pay}}, rd.WithCompression())
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	hier := rd.Pentium4()
	hier.Levels[1].SizeBytes = 384 << 10 // this test's own hierarchy
	rt := rd.NewRuntime(rd.RuntimeConfig{Workers: 2, MaxConcurrentQueries: 2})
	defer rt.Close()
	q := rd.JoinQuery{
		Larger: mk("larger"), Smaller: mk("smaller"), LargerKey: "key", SmallerKey: "key",
		LargerProject: []string{"a1"}, SmallerProject: []string{"a1"},
		Runtime: rt, Hier: hier,
	}
	run := func(par int, comp rd.Compression) {
		t.Helper()
		q.Parallelism, q.Compression = par, comp
		for _, st := range []rd.Strategy{rd.DSMPostDecluster, rd.DSMPre, rd.NSMPrePhash, rd.NSMPostDecluster, rd.NSMPostJive} {
			q.Strategy = st
			res, err := rd.ProjectJoin(q)
			if err != nil {
				t.Fatalf("%v parallelism=%d compression=%v: %v", st, par, comp, err)
			}
			if want := comp == rd.CompressionOn; comp != rd.CompressionAuto && res.Compressed != want {
				t.Fatalf("%v parallelism=%d compression=%v: Compressed = %v", st, par, comp, res.Compressed)
			}
			res.Release()
		}
	}

	streams, decodes := costmodel.CalibrationEntries()
	run(0, rd.CompressionOff)
	run(2, rd.CompressionOff)
	run(0, rd.CompressionOn)
	run(2, rd.CompressionOn)
	run(rd.AutoParallelism, rd.CompressionOff)
	run(rd.AutoParallelism, rd.CompressionOn)
	if s, d := costmodel.CalibrationEntries(); s != streams || d != decodes {
		t.Fatalf("queries with nothing for the model to decide ran calibration probes: streams %d -> %d, decodes %d -> %d",
			streams, s, decodes, d)
	}

	// The observable works: CompressionAuto prices both representations
	// at the plan's two workers through the bandwidth ceiling, which
	// measures the hierarchy.
	run(2, rd.CompressionAuto)
	if s, _ := costmodel.CalibrationEntries(); s != streams+1 {
		t.Fatalf("CompressionAuto left the streams memo at %d entries, want %d", s, streams+1)
	}
}
