package obs

import (
	"strings"
	"sync"
	"testing"
)

func render(r *Registry) string {
	var sb strings.Builder
	r.WritePrometheus(&sb)
	return sb.String()
}

// TestExpositionFormat checks the text format scrapeable by any
// Prometheus-compatible collector: HELP/TYPE headers, bare and
// labeled samples, cumulative histogram buckets.
func TestExpositionFormat(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_queries_total", "Queries seen.")
	c.Add(3)
	r.GaugeFunc("test_workers", "Worker count.", func() float64 { return 8 })
	v := r.CounterVec("test_phase_seconds_total", "Per-phase seconds.", "phase")
	v.With("join").Add(1.5)
	v.With("scan").Add(0.25)
	v2 := r.CounterVec("test_plans_total", "Plans by strategy and methods.", "strategy", "methods")
	v2.With("DSM-post", "u/u").Inc()
	v2.With("DSM-post", "c/d").Add(2)
	v2.With("DSM-post", "u/u").Inc()
	r.CounterFuncs("test_morsels_total", "Morsels by placement.", "placement", []FuncSeries{
		{Label: "local", Fn: func() float64 { return 10 }},
		{Label: "steal_remote", Fn: func() float64 { return 2 }},
	})
	h := r.Histogram("test_wait_seconds", "Wait times.", []float64{0.001, 0.01, 0.1})
	h.Observe(0.0005)
	h.Observe(0.05)
	h.Observe(5)

	text := render(r)
	for _, want := range []string{
		"# HELP test_queries_total Queries seen.",
		"# TYPE test_queries_total counter",
		"test_queries_total 3",
		"# TYPE test_workers gauge",
		"test_workers 8",
		`test_phase_seconds_total{phase="join"} 1.5`,
		`test_phase_seconds_total{phase="scan"} 0.25`,
		`test_plans_total{strategy="DSM-post",methods="c/d"} 2`,
		`test_plans_total{strategy="DSM-post",methods="u/u"} 2`,
		`test_morsels_total{placement="local"} 10`,
		`test_morsels_total{placement="steal_remote"} 2`,
		"# TYPE test_wait_seconds histogram",
		`test_wait_seconds_bucket{le="0.001"} 1`,
		`test_wait_seconds_bucket{le="0.01"} 1`,
		`test_wait_seconds_bucket{le="0.1"} 2`,
		`test_wait_seconds_bucket{le="+Inf"} 3`,
		"test_wait_seconds_sum 5.0505",
		"test_wait_seconds_count 3",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %q:\n%s", want, text)
		}
	}
}

// TestCounterMonotonicAcrossScrapes: two scrapes with pushes between
// them — every counter sample in the second is >= its first value,
// the invariant scrapers alert on.
func TestCounterMonotonicAcrossScrapes(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("mono_total", "m")
	var pulled float64
	r.CounterFunc("mono_pulled_total", "m", func() float64 { return pulled })
	v := r.CounterVec("mono_vec_total", "m", "k")
	h := r.Histogram("mono_wait", "m", ExpBuckets(1e-6, 10, 4))

	c.Add(2)
	pulled = 5
	v.With("a").Inc()
	h.Observe(0.01)
	first := ParseSamples(render(r))

	c.Add(1)
	c.Add(-7) // negative adds must be ignored, not decrease
	pulled = 9
	v.With("a").Inc()
	v.With("b").Inc()
	h.Observe(3)
	second := ParseSamples(render(r))

	if len(first) == 0 || len(second) == 0 {
		t.Fatal("scrapes parsed no samples")
	}
	for name, v1 := range first {
		v2, ok := second[name]
		if !ok {
			t.Fatalf("series %s disappeared between scrapes", name)
		}
		if v2 < v1 {
			t.Fatalf("series %s went backwards: %g -> %g", name, v1, v2)
		}
	}
	if second["mono_total"] != 3 {
		t.Fatalf("mono_total = %g, want 3 (negative add ignored)", second["mono_total"])
	}
}

// TestParseSamples covers the mini-parser the scrape tests use.
func TestParseSamples(t *testing.T) {
	s := ParseSamples("# HELP x y\n# TYPE x counter\nx 3\n" +
		`x_bucket{le="0.01"} 7` + "\n\nbad-line\nyz 2.5e-3\n")
	if s["x"] != 3 || s[`x_bucket{le="0.01"}`] != 7 || s["yz"] != 0.0025 {
		t.Fatalf("parsed %v", s)
	}
	if len(s) != 3 {
		t.Fatalf("parsed %d samples, want 3: %v", len(s), s)
	}
}

// TestDuplicateRegistrationPanics: silent shadowing of a metric name
// would corrupt dashboards; it must fail at registration.
func TestDuplicateRegistrationPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("dup_total", "d")
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	r.Counter("dup_total", "d")
}

// TestCounterConcurrent exercises the CAS loop under -race.
func TestCounterConcurrent(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Fatalf("count %g, want 8000", c.Value())
	}
}

// TestExpBuckets pins the ladder shape.
func TestExpBuckets(t *testing.T) {
	b := ExpBuckets(1e-6, 4, 3)
	want := []float64{1e-6, 4e-6, 1.6e-5}
	for i := range want {
		if b[i] != want[i] {
			t.Fatalf("buckets %v, want %v", b, want)
		}
	}
}
