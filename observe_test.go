package radixdecluster

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"radixdecluster/internal/obs"
	"radixdecluster/internal/workload"
)

// observeQuery builds a mid-size query that genuinely exercises the
// parallel executor (above exec.MinParallelN).
func observeQuery(t *testing.T) JoinQuery {
	t.Helper()
	const pi = 2
	larger, smaller := workloadRelations(t, workload.Params{
		N: 96 << 10, Omega: pi + 1, HitRate: 1, SelLarger: 1, SelSmaller: 1, Seed: 7,
	}, pi)
	return JoinQuery{
		Larger: larger, Smaller: smaller,
		LargerKey: "key", SmallerKey: "key",
		LargerProject: projNames(pi), SmallerProject: projNames(pi),
		Strategy: DSMPostDecluster,
	}
}

// TestTraceDoesNotChangeResults: tracing is pure observation — the
// result bytes with Trace on must equal the untraced run's, serial
// and parallel.
func TestTraceDoesNotChangeResults(t *testing.T) {
	q := observeQuery(t)
	for _, par := range []int{0, 4} {
		q.Parallelism = par
		q.Trace = false
		want, err := ProjectJoin(q)
		if err != nil {
			t.Fatal(err)
		}
		if want.Trace != nil {
			t.Fatal("untraced run returned a trace")
		}
		q.Trace = true
		got, err := ProjectJoin(q)
		if err != nil {
			t.Fatal(err)
		}
		if got.N != want.N || !reflect.DeepEqual(got.Cols, want.Cols) {
			t.Fatalf("parallelism %d: traced result differs from untraced", par)
		}
		if got.Trace == nil || got.Trace.Spans() == 0 {
			t.Fatalf("parallelism %d: traced run recorded no spans", par)
		}
	}
}

// TestTraceExport renders a query's trace as Chrome trace-event JSON
// and checks the document loads as the format Perfetto expects, with
// the query's strategy and relations in the process title.
func TestTraceExport(t *testing.T) {
	q := observeQuery(t)
	q.Parallelism = 2
	q.Trace = true
	res, err := ProjectJoin(q)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Trace.Label(), "DSM-post-decluster") ||
		!strings.Contains(res.Trace.Label(), "larger") {
		t.Fatalf("trace label %q missing strategy/relation names", res.Trace.Label())
	}
	var buf bytes.Buffer
	if err := res.Trace.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace JSON invalid: %v", err)
	}
	if len(doc.TraceEvents) < 2 {
		t.Fatalf("trace exported %d events", len(doc.TraceEvents))
	}

	// Merging several queries' traces keeps one process per query.
	var merged bytes.Buffer
	if err := WriteTraces(&merged, res.Trace, nil, res.Trace); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(merged.Bytes(), &doc); err != nil {
		t.Fatalf("merged trace JSON invalid: %v", err)
	}
	pids := map[float64]bool{}
	for _, e := range doc.TraceEvents {
		pids[e["pid"].(float64)] = true
	}
	if len(pids) != 2 {
		t.Fatalf("merged trace has %d process tracks, want 2", len(pids))
	}
}

// TestRuntimeMetricsEndpoint boots a runtime, serves it the way
// cmd/joinserve does (obs.NewMux over the runtime's WritePrometheus
// hook), runs queries on it, and scrapes the HTTP endpoint twice: the
// exposition must parse, carry the admission and placement series, and
// every counter must be monotonic between the scrapes.
func TestRuntimeMetricsEndpoint(t *testing.T) {
	rt := NewRuntime(RuntimeConfig{Workers: 2})
	defer rt.Close()
	srv := httptest.NewServer(obs.NewMux(rt))
	defer srv.Close()

	scrape := func() map[string]float64 {
		resp, err := http.Get(srv.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
			t.Fatalf("content type %q", ct)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return obs.ParseSamples(string(body))
	}

	first := scrape()
	for _, series := range []string{
		"radixdecluster_workers",
		"radixdecluster_active_queries",
		"radixdecluster_admission_queue_depth",
		"radixdecluster_queries_total",
		"radixdecluster_admission_wait_seconds_count",
		`radixdecluster_morsels_total{placement="local"}`,
		`radixdecluster_morsels_total{placement="stolen"}`,
	} {
		if _, ok := first[series]; !ok {
			t.Fatalf("exposition missing series %s (have %d samples)", series, len(first))
		}
	}

	q := observeQuery(t)
	q.Parallelism = 2
	q.Runtime = rt
	for i := 0; i < 2; i++ {
		if _, err := ProjectJoin(q); err != nil {
			t.Fatal(err)
		}
	}
	second := scrape()
	if got := second["radixdecluster_queries_total"] - first["radixdecluster_queries_total"]; got != 2 {
		t.Fatalf("queries_total moved by %g, want 2", got)
	}
	if second[`radixdecluster_morsels_total{placement="local"}`] == 0 {
		t.Fatal("no local morsels counted")
	}
	if second["radixdecluster_admission_wait_seconds_count"] < 2 {
		t.Fatal("admission wait histogram did not observe the queries")
	}
	// 384 KB columns on the Pentium 4's 512 KB L2: both runs planned u/u.
	if got := second[`radixdecluster_plans_total{strategy="DSM-post-decluster",methods="u/u"}`]; got != 2 {
		t.Fatalf("plans_total{DSM-post-decluster,u/u} = %g, want 2", got)
	}
	for name, v1 := range first {
		if strings.HasSuffix(name, "_total") || strings.Contains(name, "_bucket") ||
			strings.HasSuffix(name, "_count") {
			if second[name] < v1 {
				t.Fatalf("counter %s went backwards: %g -> %g", name, v1, second[name])
			}
		}
	}
}

// TestRuntimeMetricsWithoutConfig: every runtime keeps its metrics —
// a zero-config one renders its series before any query ran, and the
// process default, which no config reaches, counts a parallel query.
func TestRuntimeMetricsWithoutConfig(t *testing.T) {
	rt := NewRuntime(RuntimeConfig{})
	defer rt.Close()
	var buf strings.Builder
	rt.WritePrometheus(&buf)
	if _, ok := obs.ParseSamples(buf.String())["radixdecluster_workers"]; !ok {
		t.Fatalf("zero-config runtime rendered no workers gauge:\n%s", buf.String())
	}

	q := observeQuery(t)
	q.Parallelism = 2
	res, err := ProjectJoin(q)
	if err != nil {
		t.Fatal(err)
	}
	res.Release()
	buf.Reset()
	DefaultRuntime().WritePrometheus(&buf)
	if got := obs.ParseSamples(buf.String())["radixdecluster_queries_total"]; got < 1 {
		t.Fatalf("default runtime's queries_total = %g after a parallel query, want >= 1", got)
	}
}
