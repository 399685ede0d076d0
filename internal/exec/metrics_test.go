package exec

import (
	"strings"
	"testing"
	"time"

	"radixdecluster/internal/obs"
)

// TestSchedStatsSub pins the snapshot-delta algebra the CLI's and the
// benchmark harness's per-leg reporting use.
func TestSchedStatsSub(t *testing.T) {
	cur := SchedStats{LocalHits: 10, Stolen: 9}
	prev := SchedStats{LocalHits: 6, Stolen: 4}
	d := cur.Sub(prev)
	want := SchedStats{LocalHits: 4, Stolen: 5}
	if d != want {
		t.Fatalf("Sub: %+v, want %+v", d, want)
	}
	if d.Tasks() != 9 || d.Steals() != 5 {
		t.Fatalf("delta arithmetic: %+v", d)
	}
	if cur.Sub(SchedStats{}) != cur {
		t.Fatal("Sub of zero must be identity")
	}
}

// TestPipelineTraceSpans: a traced runtime pipeline records phase
// spans on the pipeline track and per-morsel spans on worker tracks,
// and an untraced one records nothing.
func TestPipelineTraceSpans(t *testing.T) {
	rt := NewRuntimeOpts(Options{Workers: 2})
	defer rt.Close()

	run := func(tr *obs.Trace) {
		pl := NewPipeline(rt, 2)
		defer pl.Close()
		pl.SetTrace(tr)
		pl.Then(PhaseScan, "scan-phase", func(e *Engine) error {
			return e.ForRanges(8*MinParallelN, func(Range) error { return nil })
		})
		pl.Then(PhaseJoin, "join-phase", func(e *Engine) error {
			return e.ForRanges(8*MinParallelN, func(Range) error { return nil })
		})
		if _, err := pl.Execute(); err != nil {
			t.Fatal(err)
		}
	}

	run(nil) // tracing off must not record (or crash)

	tr := obs.NewTrace("test-query")
	run(tr)
	var phaseSpans, morselSpans int
	cats := map[string]bool{}
	for _, e := range tr.Events() {
		cats[e.Cat] = true
		switch {
		case e.TID == tracePipelineTID && e.Name != "admission":
			phaseSpans++
			if e.Args["morsels"] <= 0 {
				t.Fatalf("phase span %q has no morsel count: %v", e.Name, e.Args)
			}
		case e.Name == "morsel":
			morselSpans++
			if e.TID < 0 || e.TID >= 2 {
				t.Fatalf("morsel span on track %d, want a worker id", e.TID)
			}
			if _, ok := e.Args["dist"]; !ok {
				t.Fatalf("morsel span missing steal distance: %v", e.Args)
			}
		}
	}
	if phaseSpans != 2 {
		t.Fatalf("recorded %d phase spans, want 2", phaseSpans)
	}
	if morselSpans == 0 {
		t.Fatal("recorded no morsel spans")
	}
	if !cats["scan"] || !cats["join"] {
		t.Fatalf("span categories %v, want scan and join phase kinds", cats)
	}
}

// TestRuntimeMetricsEndToEnd: a metrics-enabled runtime exposes the
// scheduler, admission and phase series, and the counters move when
// pipelines run.
func TestRuntimeMetricsEndToEnd(t *testing.T) {
	rt := NewRuntimeOpts(Options{Workers: 2, MaxConcurrent: 1, Metrics: true})
	defer rt.Close()
	reg := rt.MetricsRegistry()
	if reg == nil {
		t.Fatal("metrics-enabled runtime has no registry")
	}

	scrape := func() map[string]float64 {
		var sb strings.Builder
		reg.WritePrometheus(&sb)
		return obs.ParseSamples(sb.String())
	}
	before := scrape()

	for q := 0; q < 2; q++ {
		pl := NewPipeline(rt, 2)
		pl.Then(PhaseJoin, "join-phase", func(e *Engine) error {
			return e.ForRanges(4*MinParallelN, func(Range) error {
				time.Sleep(time.Microsecond)
				return nil
			})
		})
		if _, err := pl.Execute(); err != nil {
			t.Fatal(err)
		}
		pl.Close()
	}
	after := scrape()

	if got := after["radixdecluster_queries_total"] - before["radixdecluster_queries_total"]; got != 2 {
		t.Fatalf("queries_total moved by %g, want 2", got)
	}
	if after[`radixdecluster_morsels_total{placement="local"}`] <= before[`radixdecluster_morsels_total{placement="local"}`] {
		t.Fatal("local morsel counter did not move")
	}
	if after[`radixdecluster_phase_seconds_total{phase="join"}`] <= 0 {
		t.Fatal("phase seconds counter did not move")
	}
	if after["radixdecluster_admission_wait_seconds_count"] < 2 {
		t.Fatalf("admission wait histogram count %g, want >= 2",
			after["radixdecluster_admission_wait_seconds_count"])
	}
	// Monotonicity across the two scrapes for every counter family.
	for name, v := range before {
		if strings.HasSuffix(name, "_total") || strings.Contains(name, "_bucket") {
			if after[name] < v {
				t.Fatalf("counter %s went backwards: %g -> %g", name, v, after[name])
			}
		}
	}
	if rt.Workers() != int(after["radixdecluster_workers"]) {
		t.Fatalf("workers gauge %g, want %d", after["radixdecluster_workers"], rt.Workers())
	}
}

// TestMetricsOffRegistryNil: without Options.Metrics the runtime
// carries no registry and no push sites fire.
func TestMetricsOffRegistryNil(t *testing.T) {
	rt := NewRuntimeOpts(Options{Workers: 1})
	defer rt.Close()
	if rt.MetricsRegistry() != nil {
		t.Fatal("metrics-off runtime must have a nil registry")
	}
	pl := NewPipeline(rt, 1)
	defer pl.Close()
	pl.Then(PhaseScan, "s", func(e *Engine) error {
		return e.ForRanges(MinParallelN, func(Range) error { return nil })
	})
	if _, err := pl.Execute(); err != nil {
		t.Fatal(err)
	}
}
