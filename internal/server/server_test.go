package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	rd "radixdecluster"

	"radixdecluster/internal/workload"
)

// testRelations builds a registered larger/smaller pair from the
// synthetic workload generator: "key" plus payload columns a1..a{pi}.
func testRelations(t testing.TB, n, pi int, opts ...rd.RelationOption) (*rd.Relation, *rd.Relation) {
	t.Helper()
	pr, err := workload.GenPair(workload.Params{
		N: n, Omega: pi + 1, HitRate: 1, SelLarger: 1, SelSmaller: 1, Seed: 42,
	})
	if err != nil {
		t.Fatal(err)
	}
	mk := func(name string, wr *workload.Relation) *rd.Relation {
		cols := []rd.Column{{Name: "key", Values: wr.Key()}}
		for j := 1; j <= pi; j++ {
			cols = append(cols, rd.Column{Name: fmt.Sprintf("a%d", j), Values: wr.PayloadCol(j)})
		}
		rel, err := rd.NewRelationOpts(name, cols, opts...)
		if err != nil {
			t.Fatal(err)
		}
		return rel
	}
	return mk("larger", pr.Larger), mk("smaller", pr.Smaller)
}

// newTestServer assembles runtime + server + httptest listener over a
// testRelations pair built with opts.
func newTestServer(t testing.TB, rtCfg rd.RuntimeConfig, cfg Config, n, pi int, opts ...rd.RelationOption) (*Server, *httptest.Server) {
	t.Helper()
	rt := rd.NewRuntime(rtCfg)
	t.Cleanup(rt.Close)
	cfg.Runtime = rt
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	larger, smaller := testRelations(t, n, pi, opts...)
	if err := s.Register(larger); err != nil {
		t.Fatal(err)
	}
	if err := s.Register(smaller); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postQuery(t *testing.T, url string, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(url+"/v1/query", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// ndjsonResult is a parsed streamed response.
type ndjsonResult struct {
	header queryHeader
	rows   [][]int32
	footer queryFooter
}

func parseNDJSON(t *testing.T, r io.Reader) ndjsonResult {
	t.Helper()
	var out ndjsonResult
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<26)
	line := 0
	var lastRaw []byte
	for sc.Scan() {
		raw := append([]byte(nil), sc.Bytes()...)
		if line == 0 {
			if err := json.Unmarshal(raw, &out.header); err != nil {
				t.Fatalf("header: %v in %s", err, raw)
			}
		} else {
			var chunk queryChunk
			if err := json.Unmarshal(raw, &chunk); err != nil {
				t.Fatalf("line %d: %v", line, err)
			}
			out.rows = append(out.rows, chunk.Rows...)
		}
		lastRaw = raw
		line++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if line < 2 {
		t.Fatalf("NDJSON stream has %d lines, want >= 2", line)
	}
	// The last line is the footer, not a chunk (it parsed as an empty
	// chunk above — reparse and drop it).
	if err := json.Unmarshal(lastRaw, &out.footer); err != nil {
		t.Fatalf("footer: %v", err)
	}
	return out
}

func getStatus(t *testing.T, url string) Status {
	t.Helper()
	resp, err := http.Get(url + "/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// A full round trip: query executes, rows stream back in chunks, the
// footer carries timing, and the result matches a direct ProjectJoin.
func TestQueryStream(t *testing.T) {
	s, ts := newTestServer(t, rd.RuntimeConfig{Workers: 2, MaxConcurrentQueries: 2},
		Config{ChunkRows: 100}, 1000, 2)
	resp := postQuery(t, ts.URL, `{"larger":"larger","smaller":"smaller","parallelism":0,"trace":true}`)
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, b)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type = %q", ct)
	}
	got := parseNDJSON(t, resp.Body)

	larger, _ := s.relation("larger")
	smaller, _ := s.relation("smaller")
	want, err := rd.ProjectJoin(rd.JoinQuery{
		Larger: larger, Smaller: smaller, LargerKey: "key", SmallerKey: "key",
		LargerProject: []string{"a1", "a2"}, SmallerProject: []string{"a1", "a2"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got.header.N != want.N || len(got.rows) != want.N {
		t.Fatalf("n=%d rows=%d, want %d", got.header.N, len(got.rows), want.N)
	}
	if len(got.header.Names) != 4 {
		t.Fatalf("names = %v", got.header.Names)
	}
	for i, row := range got.rows {
		for c := range row {
			if row[c] != want.Cols[c][i] {
				t.Fatalf("row %d col %d = %d, want %d", i, c, row[c], want.Cols[c][i])
			}
		}
	}
	if got.footer.RowsStreamed != want.N {
		t.Fatalf("footer rowsStreamed = %d, want %d", got.footer.RowsStreamed, want.N)
	}
	if got.footer.Timing.TotalMs <= 0 {
		t.Fatal("footer timing missing")
	}
	if got.footer.TraceSpans == 0 {
		t.Fatal("trace requested but footer reports 0 spans")
	}

	// Limit trims the transfer, not the result.
	resp = postQuery(t, ts.URL, `{"larger":"larger","smaller":"smaller","parallelism":0,"limit":7}`)
	defer resp.Body.Close()
	lim := parseNDJSON(t, resp.Body)
	if lim.header.N != want.N || len(lim.rows) != 7 {
		t.Fatalf("limit: n=%d rows=%d, want n=%d rows=7", lim.header.N, len(lim.rows), want.N)
	}

	// OmitRows: header and footer only.
	resp = postQuery(t, ts.URL, `{"larger":"larger","smaller":"smaller","parallelism":0,"omitRows":true}`)
	defer resp.Body.Close()
	omit := parseNDJSON(t, resp.Body)
	if len(omit.rows) != 0 || omit.header.N != want.N {
		t.Fatalf("omitRows: rows=%d n=%d", len(omit.rows), omit.header.N)
	}
}

// The validation surface: wrong method, malformed body, unknown
// field, unknown relation, bad strategy, bad compression, oversized
// body, parallelism outside [-1, maxParallelismPerWorker x workers],
// negative limit — each answered with an error naming the offender.
func TestQueryValidation(t *testing.T) {
	_, ts := newTestServer(t, rd.RuntimeConfig{Workers: 1, MaxConcurrentQueries: 1},
		Config{MaxBodyBytes: 512}, 64, 1)
	cases := []struct {
		name, body string
		want       int
		names      string // what the error message must mention
	}{
		{"bad strategy", `{"larger":"larger","smaller":"smaller","strategy":"DSM-quantum"}`, 400, "strategy"},
		{"unknown relation", `{"larger":"nope","smaller":"smaller"}`, 404, "nope"},
		{"unknown smaller", `{"larger":"larger","smaller":"nope"}`, 404, "nope"},
		{"bad compression", `{"larger":"larger","smaller":"smaller","compression":"zstd"}`, 400, "compression"},
		{"unknown field", `{"larger":"larger","smaller":"smaller","turbo":true}`, 400, "turbo"},
		{"syntax", `{"larger":`, 400, "bad request body"},
		// A body is one object: bytes after it reject the request.
		{"trailing garbage", `{"larger":"larger","smaller":"smaller"} garbage`, 400, "bad request body"},
		{"two objects", `{"larger":"larger","smaller":"smaller"}{"larger":"larger","smaller":"smaller"}`, 400, "data after the request object"},
		{"trailing white space", `{"larger":"larger","smaller":"smaller"}` + " \n\t", 200, ""},
		{"unknown column", `{"larger":"larger","smaller":"smaller","largerProject":["zz"],"parallelism":0}`, 400, "zz"},
		{"oversized", `{"larger":"larger","smaller":"smaller","strategy":"` + strings.Repeat("x", 600) + `"}`, 413, "512 bytes"},
		// One worker: nominal parallelism is legal up to
		// maxParallelismPerWorker and no further, -1 is the planner's
		// choice and nothing below it means anything.
		{"parallelism huge", `{"larger":"larger","smaller":"smaller","parallelism":131072}`, 400, "parallelism 131072"},
		{"parallelism just over", `{"larger":"larger","smaller":"smaller","parallelism":9}`, 400, "parallelism 9"},
		{"parallelism negative", `{"larger":"larger","smaller":"smaller","parallelism":-7}`, 400, "parallelism -7"},
		{"limit negative", `{"larger":"larger","smaller":"smaller","limit":-1}`, 400, "limit -1"},
		{"parallelism at the bound", `{"larger":"larger","smaller":"smaller","parallelism":8}`, 200, ""},
		{"parallelism auto", `{"larger":"larger","smaller":"smaller","parallelism":-1}`, 200, ""},
		// A query that projects nothing is legal and still has a
		// cardinality: the strategy changes wall-clock only.
		{"no projection", `{"larger":"larger","smaller":"smaller","largerProject":[],"smallerProject":[]}`, 200, ""},
		{"no projection, DSM-pre", `{"larger":"larger","smaller":"smaller","largerProject":[],"smallerProject":[],"strategy":"DSM-pre"}`, 200, ""},
		{"one side projected, NSM-post-jive", `{"larger":"larger","smaller":"smaller","smallerProject":[],"strategy":"NSM-post-jive"}`, 200, ""},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			resp := postQuery(t, ts.URL, c.body)
			defer resp.Body.Close()
			if resp.StatusCode != c.want {
				b, _ := io.ReadAll(resp.Body)
				t.Fatalf("status %d, want %d (%s)", resp.StatusCode, c.want, b)
			}
			if c.want == 200 {
				// Every accepted query above is the full key-FK join of
				// the 64-row pair, whatever it projects.
				if n := parseNDJSON(t, resp.Body).header.N; n != 64 {
					t.Fatalf("header n = %d, want 64", n)
				}
				return
			}
			var e map[string]string
			if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || !strings.Contains(e["error"], c.names) {
				t.Fatalf("error %q does not name %q (%v)", e["error"], c.names, err)
			}
		})
	}
	// A wrong method is answered 405 with the Allow header (RFC 9110).
	for _, c := range []struct{ method, path, allow string }{
		{http.MethodGet, "/v1/query", http.MethodPost},
		{http.MethodPut, "/v1/query", http.MethodPost},
		{http.MethodPost, "/v1/relations", http.MethodGet},
		{http.MethodDelete, "/v1/status", http.MethodGet},
	} {
		req, err := http.NewRequest(c.method, ts.URL+c.path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed || resp.Header.Get("Allow") != c.allow {
			t.Fatalf("%s %s = %d with Allow %q, want 405 with Allow %q",
				c.method, c.path, resp.StatusCode, resp.Header.Get("Allow"), c.allow)
		}
	}
}

// jsonObject decodes one level of a JSON object.
func jsonObject(t *testing.T, raw []byte) map[string]json.RawMessage {
	t.Helper()
	var obj map[string]json.RawMessage
	if err := json.Unmarshal(raw, &obj); err != nil {
		t.Fatalf("not a JSON object: %v in %s", err, raw)
	}
	return obj
}

// TestStatusAndFooterWireShape pins the JSON key sets of the two
// documents clients decode — /v1/status and the stream footer. The
// scheduler and arena statistics in them are the engine's own records
// (exec.SchedStats, mempool.Stats) under their public names; a field
// renamed or tagged down there must not silently change the wire.
func TestStatusAndFooterWireShape(t *testing.T) {
	_, ts := newTestServer(t, rd.RuntimeConfig{Workers: 2, MaxConcurrentQueries: 2}, Config{}, 64, 1)
	resp := postQuery(t, ts.URL, `{"larger":"larger","smaller":"smaller","trace":true}`)
	var lastLine []byte
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<26)
	for sc.Scan() {
		lastLine = append(lastLine[:0], sc.Bytes()...)
	}
	resp.Body.Close()
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	footer := jsonObject(t, lastLine)

	sresp, err := http.Get(ts.URL + "/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(sresp.Body)
	sresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	status := jsonObject(t, body)

	for _, c := range []struct {
		name string
		doc  map[string]json.RawMessage
		want []string
	}{
		{"status", status, []string{"activeQueries", "maxConcurrentQueries", "memPool", "queuedQueries",
			"sched", "server", "sharedScanHits", "workers"}},
		{"status.sched", jsonObject(t, status["sched"]), []string{"LocalHits", "Stolen"}},
		{"status.memPool", jsonObject(t, status["memPool"]), []string{"HeldBytes", "Hits", "Leases", "Misses", "Trims"}},
		{"status.server", jsonObject(t, status["server"]), []string{"batchedQueries",
			"draining", "inflight", "queriesAccepted", "queriesFailed", "queriesRejected",
			"queriesRejectedDraining", "queriesSucceeded", "queueWatermark", "relations", "resultsBinary",
			"resultsNDJSON", "rowsStreamed", "uptimeSeconds", "wireBytes", "wireCompressedBytes", "wireFrames"}},
		{"footer", footer, []string{"rowsStreamed", "sharedScanHits", "timing", "traceSpans"}},
		{"footer.timing", jsonObject(t, footer["timing"]), []string{"declusterMs", "joinMs", "projectLargerMs",
			"projectSmallerMs", "queueMs", "reorderJIMs", "scanMs", "totalMs"}},
	} {
		got := make([]string, 0, len(c.doc))
		for k := range c.doc {
			got = append(got, k)
		}
		sort.Strings(got)
		if !slices.Equal(got, c.want) {
			t.Errorf("%s keys = %v, want %v", c.name, got, c.want)
		}
	}
	// The three keys kept only for benchmark/'s decoders never move.
	for name, v := range map[string]json.RawMessage{
		"status.sharedScanHits":        status["sharedScanHits"],
		"status.server.batchedQueries": jsonObject(t, status["server"])["batchedQueries"],
		"footer.sharedScanHits":        footer["sharedScanHits"],
	} {
		if string(v) != "0" {
			t.Errorf("%s = %s, want 0", name, v)
		}
	}
}

// /v1/relations lists registrations; /v1/status reports runtime and
// server counters; /metrics renders both runtime and server series on
// the one mux. joinImageBytes follows what runtime queries add to the
// join images: raw image-order columns at 4 B per tuple, and for a
// compressed query the encodings of those columns, not oids.
func TestRelationsStatusMetrics(t *testing.T) {
	_, ts := newTestServer(t, rd.RuntimeConfig{Workers: 2, MaxConcurrentQueries: 2},
		Config{}, 256, 2, rd.WithCompression())

	relations := func() []RelationInfo {
		t.Helper()
		resp, err := http.Get(ts.URL + "/v1/relations")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var rels []RelationInfo
		if err := json.NewDecoder(resp.Body).Decode(&rels); err != nil {
			t.Fatal(err)
		}
		if len(rels) != 2 || rels[0].Name != "larger" || rels[1].Name != "smaller" {
			t.Fatalf("relations = %+v", rels)
		}
		return rels
	}
	rels := relations()
	if rels[0].Rows != 256 || len(rels[0].Columns) != 3 || rels[0].JoinImageBytes != 0 {
		t.Fatalf("larger info = %+v", rels[0])
	}

	// Run one query so the counters move. A paper-mode query builds no
	// join image.
	qresp := postQuery(t, ts.URL, `{"larger":"larger","smaller":"smaller","parallelism":0}`)
	io.Copy(io.Discard, qresp.Body) //nolint:errcheck
	qresp.Body.Close()
	for _, r := range relations() {
		if r.JoinImageBytes != 0 {
			t.Fatalf("%s: a paper-mode query built a %d-byte join image", r.Name, r.JoinImageBytes)
		}
	}

	st := getStatus(t, ts.URL)
	if st.Workers != 2 || st.MaxConcurrentQueries != 2 {
		t.Fatalf("status runtime shape = %+v", st)
	}
	if st.Server.Accepted != 1 || st.Server.Succeeded != 1 || st.Server.RowsStreamed != 256 {
		t.Fatalf("status server counters = %+v", st.Server)
	}
	if st.Server.Relations != 2 || st.Server.UptimeSeconds <= 0 {
		t.Fatalf("status server = %+v", st.Server)
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mb, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	for _, series := range []string{
		"radixdecluster_queries_total",                 // runtime series
		"radixdecluster_server_http_requests_total",    // server HTTP series
		"radixdecluster_server_queries_accepted_total", // server counter
		"radixdecluster_server_result_rows_total",      // streamed rows
	} {
		if !bytes.Contains(mb, []byte(series)) {
			t.Fatalf("/metrics missing %s:\n%s", series, mb)
		}
	}

	// A runtime query joins over join images: 4 B per key and 4 B per
	// tuple of each projected column (the two non-key ones by default),
	// plus offsets.
	qresp = postQuery(t, ts.URL, `{"larger":"larger","smaller":"smaller","parallelism":2,"omitRows":true}`)
	io.Copy(io.Discard, qresp.Body) //nolint:errcheck
	qresp.Body.Close()
	rawRels := relations()
	for _, r := range rawRels {
		if want := 4 * int64(r.Rows) * int64(len(r.Columns)); r.JoinImageBytes < want {
			t.Fatalf("%s: %d join-image bytes after a runtime query, want at least %d", r.Name, r.JoinImageBytes, want)
		}
	}

	// A compressed runtime query projects the same columns from the same
	// images: it adds an encoding of each — fewer bytes than the 4 B per
	// tuple an oid column would add.
	qresp = postQuery(t, ts.URL, `{"larger":"larger","smaller":"smaller","parallelism":2,"omitRows":true,"compression":"on"}`)
	io.Copy(io.Discard, qresp.Body) //nolint:errcheck
	qresp.Body.Close()
	for i, r := range relations() {
		if grown := r.JoinImageBytes - rawRels[i].JoinImageBytes; grown <= 0 || grown >= 4*int64(r.Rows) {
			t.Fatalf("%s: a compressed runtime query grew the join image by %d bytes, want encodings: more than 0, less than %d",
				r.Name, grown, 4*r.Rows)
		}
	}
}

// Once the admission queue reaches the watermark, POST /v1/query
// answers 429 with Retry-After instead of queueing more work.
func TestBackpressure(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	s, ts := newTestServer(t, rd.RuntimeConfig{
		Workers: 2, MaxConcurrentQueries: 1,
	}, Config{QueueWatermark: 1}, 128<<10, 2)
	larger, _ := s.relation("larger")
	smaller, _ := s.relation("smaller")
	q := rd.JoinQuery{
		Larger: larger, Smaller: smaller, LargerKey: "key", SmallerKey: "key",
		LargerProject: []string{"a1"}, SmallerProject: []string{"a1"},
		Strategy: rd.NSMPostDecluster, Parallelism: 2, Runtime: s.cfg.Runtime,
	}
	for attempt := 0; attempt < 10; attempt++ {
		// Fill the admission queue directly on the runtime (admit=1:
		// one runs, the rest wait FIFO).
		var wg sync.WaitGroup
		for i := 0; i < 8; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				rd.ProjectJoin(q) //nolint:errcheck
			}()
		}
		deadline := time.Now().Add(5 * time.Second)
		got429 := false
		for time.Now().Before(deadline) {
			if s.cfg.Runtime.QueuedQueries() < 1 {
				time.Sleep(time.Millisecond)
				continue
			}
			resp := postQuery(t, ts.URL, `{"larger":"larger","smaller":"smaller","parallelism":2,"omitRows":true}`)
			code := resp.StatusCode
			ra := resp.Header.Get("Retry-After")
			io.Copy(io.Discard, resp.Body) //nolint:errcheck
			resp.Body.Close()
			if code == http.StatusTooManyRequests {
				if ra == "" {
					t.Fatal("429 without Retry-After")
				}
				got429 = true
				break
			}
			// The queue drained between the check and the probe — the
			// query just ran; go around again.
		}
		wg.Wait()
		if got429 {
			if st := getStatus(t, ts.URL); st.Server.Rejected429 == 0 {
				t.Fatalf("429 sent but counter is 0: %+v", st.Server)
			}
			return
		}
	}
	t.Fatal("never observed a 429 with the admission queue at the watermark")
}

// Drain: in-flight queries complete with 200, new arrivals get 503,
// and Drain returns once the last in-flight response finishes. The
// client stalls mid-response — ~11 MB of NDJSON do not fit the socket
// buffers, so the handler is blocked in a write — which holds the query
// in flight for as long as the test needs.
func TestDrain(t *testing.T) {
	const n = 256 << 10
	s, ts := newTestServer(t, rd.RuntimeConfig{Workers: 2, MaxConcurrentQueries: 2},
		Config{}, n, 2)

	// The response headers are back, the body is not being read: the
	// handler cannot finish.
	inflight := postQuery(t, ts.URL, `{"larger":"larger","smaller":"smaller","parallelism":0}`)
	defer inflight.Body.Close()
	if inflight.StatusCode != 200 {
		t.Fatalf("in-flight query: status %d, want 200", inflight.StatusCode)
	}
	if got := s.active.Load(); got != 1 {
		t.Fatalf("%d queries in flight with the reader stalled, want 1", got)
	}
	s.BeginDrain()

	// New arrivals are refused.
	resp := postQuery(t, ts.URL, `{"larger":"larger","smaller":"smaller","parallelism":0}`)
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("during drain: status %d, want 503", resp.StatusCode)
	}

	// Drain waits for the in-flight query...
	short, cancelShort := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancelShort()
	if err := s.Drain(short); err == nil {
		t.Fatal("Drain returned while a response was still streaming")
	}
	// ...which still completes once its reader catches up.
	if got := parseNDJSON(t, inflight.Body); len(got.rows) != n {
		t.Fatalf("in-flight query streamed %d rows, want %d", len(got.rows), n)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if st := getStatus(t, ts.URL); !st.Server.Draining || st.Server.RejectedDrain != 1 {
		t.Fatalf("status after drain = %+v", st.Server)
	}
}

// A request whose client is already gone when the handler reaches
// dispatch is not executed: nothing is accepted, no lease is opened,
// nothing is answered.
func TestCancelledBeforeDispatchNotExecuted(t *testing.T) {
	s, _ := newTestServer(t, rd.RuntimeConfig{Workers: 2, MaxConcurrentQueries: 2}, Config{}, 64, 1)
	before := s.cfg.Runtime.MemPoolStats()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest(http.MethodPost, "/v1/query",
		strings.NewReader(`{"larger":"larger","smaller":"smaller","parallelism":2}`)).WithContext(ctx)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Body.Len() != 0 {
		t.Fatalf("cancelled request was answered: %s", rec.Body)
	}
	if got := s.accepted.Load(); got != 0 {
		t.Fatalf("queriesAccepted = %d after a cancelled request, want 0", got)
	}
	if after := s.cfg.Runtime.MemPoolStats(); after != before {
		t.Fatalf("arena moved under a cancelled request: %v -> %v", before, after)
	}
}
