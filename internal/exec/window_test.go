package exec

import (
	"strings"
	"testing"
	"time"

	"radixdecluster/internal/calibrator"
	"radixdecluster/internal/obs"
)

// TestSchedWindowRegimeShift is the reason windowed stats exist: a
// scheduling-regime change must show up in the windowed rate while
// the lifetime average smears it away. One of two workers is held
// hostage throughout (on a 2-node topology, so every steal is remote
// and none counts warm). Regime A homes SchedWindowTasks-sized
// windows of morsels on the free worker — pure local hits; regime B
// homes as many on the hostage — every one stolen. After equally many
// windows of each, the lifetime warm rate sits near 0.5 — useless as
// a signal of the CURRENT regime — while the windowed EWMA has
// decayed toward the new regime's ~0. The hostage morsel's own claim
// shifts the window boundaries by one morsel, which the bounds below
// absorb.
func TestSchedWindowRegimeShift(t *testing.T) {
	topo := &calibrator.Topology{Source: "test", CPUs: []calibrator.TopoCPU{
		{ID: 0, Core: 0, LLC: 0, Node: 0},
		{ID: 1, Core: 1, LLC: 1, Node: 1},
	}}
	rt := NewRuntimeOpts(Options{Workers: 2, Topology: topo})
	defer rt.Close()
	p := NewEngine(rt, 2)
	defer p.Close()
	held, release := holdWorkers(t, rt, 1)
	busy := held[0]

	const nwin = 4
	const regime = nwin * SchedWindowTasks

	// Regime A: every morsel homed on the free worker — a local hit
	// (the only possible thief is stuck).
	freeKey := keyHomedOn(t, p.affSeed, 1-busy, 2)
	p.runAff(regime, func(int) uint64 { return freeKey }, func(_, _ int, _ *Scratch) {})
	winA := rt.SchedStatsWindow()
	if winA.Windows != nwin {
		t.Fatalf("regime A completed %d windows, want %d", winA.Windows, nwin)
	}
	if winA.WarmHitRate() < 0.99 || winA.LocalHitRate() < 0.99 {
		t.Fatalf("regime A windowed rates %v, want ~1", winA)
	}
	if winA.Last.Steals() != 0 || winA.Last.LocalHits != SchedWindowTasks {
		t.Fatalf("regime A last window %v, want %d pure local", winA.Last, SchedWindowTasks)
	}

	// Regime B: every morsel homed on the hostage — all stolen remotely.
	busyKey := keyHomedOn(t, p.affSeed, busy, 2)
	p.runAff(regime, func(int) uint64 { return busyKey }, func(_, _ int, _ *Scratch) {})
	release()

	winB := rt.SchedStatsWindow()
	if winB.Windows < 2*nwin {
		t.Fatalf("regime B completed %d windows, want >= %d", winB.Windows, 2*nwin)
	}
	life := rt.SchedStats()
	if r := life.WarmHitRate(); r < 0.4 || r > 0.6 {
		t.Fatalf("lifetime warm rate %.3f, want ~0.5 (half the history each regime)", r)
	}
	// EWMA with alpha 0.5 over >= nwin all-steal windows: 1 * 0.5^4.
	if r := winB.WarmHitRate(); r > 0.15 {
		t.Fatalf("windowed warm rate %.3f did not track the regime shift (lifetime %.3f)",
			r, life.WarmHitRate())
	}
	if winB.Last.LocalHits != 0 || winB.Last.Steals() != SchedWindowTasks {
		t.Fatalf("regime B last window %v, want %d pure steals", winB.Last, SchedWindowTasks)
	}
}

// TestSchedStatsSub pins the snapshot-delta algebra the windowed
// roll and the CLI's per-leg reporting use.
func TestSchedStatsSub(t *testing.T) {
	cur := SchedStats{LocalHits: 10, StealsSibling: 4, StealsShared: 3, StealsRemote: 2}
	prev := SchedStats{LocalHits: 6, StealsSibling: 1, StealsShared: 3, StealsRemote: 0}
	d := cur.Sub(prev)
	want := SchedStats{LocalHits: 4, StealsSibling: 3, StealsShared: 0, StealsRemote: 2}
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
	rt := NewRuntimeOpts(Options{Workers: 2, Topology: calibrator.FlatTopology(2)})
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
	rt := NewRuntimeOpts(Options{Workers: 2, MaxConcurrent: 1, Metrics: true,
		Topology: calibrator.FlatTopology(2)})
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
	rt := NewRuntimeOpts(Options{Workers: 1, Topology: calibrator.FlatTopology(1)})
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
