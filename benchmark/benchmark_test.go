package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"syscall"
	"testing"
	"time"

	rd "radixdecluster"

	"radixdecluster/internal/server"
)

const (
	testN    = 4096
	testPi   = 2
	testSeed = 7
)

// newTestServer serves one seeded pair from an in-process server.New
// behind mangle, which may rewrite each /v1/query response.
func newTestServer(t *testing.T, mangle func(w http.ResponseWriter, r *http.Request, next http.Handler)) (*httptest.Server, *oracle) {
	t.Helper()
	rt := rd.NewRuntime(rd.RuntimeConfig{Workers: 2, ShareScans: true})
	t.Cleanup(rt.Close)
	srv, err := server.New(server.Config{Runtime: rt})
	if err != nil {
		t.Fatal(err)
	}
	larger, smaller, err := buildPair(testN, testPi, testSeed, rd.WithCompression())
	if err != nil {
		t.Fatal(err)
	}
	for _, rel := range []*rd.Relation{larger, smaller} {
		if err := srv.Register(rel); err != nil {
			t.Fatal(err)
		}
	}
	h := srv.Handler()
	if mangle != nil {
		h = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { mangle(w, r, srv.Handler()) })
	}
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	o, err := newOracle(testN, testPi, testSeed)
	if err != nil {
		t.Fatal(err)
	}
	return ts, o
}

func testDoer(t *testing.T, url string, o *oracle, binary bool, q queryBody) *httpDoer {
	t.Helper()
	q.Larger, q.Smaller = "larger0", "smaller0"
	w := workloadSpec{omitRows: q.OmitRows, limit: q.Limit}
	d, err := newHTTPDoer(url, q, binary, newExpect(o, w.rowsStreamed(o.n)))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.close)
	return d
}

func TestPercentileRule(t *testing.T) {
	var xs []float64
	for i := 10; i >= 1; i-- {
		xs = append(xs, float64(i))
	}
	if got := percentile(xs, 0.5); got != 5 {
		t.Errorf("p50 of 1..10 = %v, want 5", got)
	}
	if got := percentile(xs, 0.9); got != 9 {
		t.Errorf("p90 of 1..10 = %v, want 9", got)
	}
	if got := percentile(nil, 0.9); got != 0 {
		t.Errorf("p90 of nothing = %v, want 0", got)
	}
	for _, c := range []struct {
		n    int
		want float64
	}{{0, 0.5}, {19, 0.5}, {99, 0.5}, {100, 0.9}, {999, 0.9}, {1000, 0.99}, {10000, 0.999}} {
		if got := supportedPercentile(c.n); got != c.want {
			t.Errorf("supportedPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
		if p := supportedPercentile(c.n); p > 0.5 && samplesBeyond(c.n, p) < 10 {
			t.Errorf("n=%d: p%v has only %d samples beyond it", c.n, 100*p, samplesBeyond(c.n, p))
		}
	}
}

// Reference values are Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2, 3, 4}, [3]float64{1.25, 2.5, 3.75}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{3}, [3]float64{3, 3, 3}},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
	if got := spread([]float64{1, 2, 3, 4}); got != 1 {
		t.Errorf("spread = %v, want 1", got)
	}
}

func TestScheduleIsSeeded(t *testing.T) {
	const dur = 3 * time.Second
	a, b := poissonSchedule(5, 0, 80, dur), poissonSchedule(5, 0, 80, dur)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two different schedules")
	}
	if reflect.DeepEqual(a, poissonSchedule(6, 0, 80, dur)) {
		t.Fatal("different seeds gave the same schedule")
	}
	if len(a) != 240 {
		t.Fatalf("%d arrivals, want rate*duration = 240", len(a))
	}
	if !sort.SliceIsSorted(a, func(i, j int) bool { return a[i] < a[j] }) || a[0] < 0 || a[len(a)-1] >= dur {
		t.Fatal("due times are not ascending within [0, duration)")
	}
}

// Steadying: every slice is put at the reference box speed, then the
// quartile on the good side is taken: the second best of five.
func TestSteadied(t *testing.T) {
	slice := func(ms, qps, speed float64) timedSlice {
		return timedSlice{speed: speed, values: map[string]float64{
			"query_ms_p50": ms, "query_ms_p90": 2 * ms, "cpu_ms_per_query": ms / 2, "queries_per_s": qps,
		}}
	}
	// The box was twice as slow during the last two slices: their times
	// doubled and their throughput halved. The third slice stalled for a
	// reason the calibration did not see.
	slices := []timedSlice{slice(10, 100, 1), slice(11, 90, 1), slice(30, 40, 1), slice(20, 50, 2), slice(24, 44, 2)}
	closed := steadied(&workloadSpec{}, slices)
	want := map[string]float64{"query_ms_p50": 10, "query_ms_p90": 20, "cpu_ms_per_query": 5, "queries_per_s": 100}
	if !reflect.DeepEqual(closed, want) {
		t.Errorf("closed loop: steadied = %v, want %v", closed, want)
	}
	// An open loop's throughput is its schedule's, whatever the box does.
	for i := range slices {
		slices[i].values["queries_per_s"] = 80
	}
	if got := steadied(&workloadSpec{openRate: 80}, slices)["queries_per_s"]; got != 80 {
		t.Errorf("open loop: queries_per_s = %v, want the schedule's 80", got)
	}
	for name := range timeMetrics {
		if _, ok := want[name]; !ok {
			t.Errorf("time metric %s is not covered by this test", name)
		}
	}
}

// A calibration does its work on every thread and leaves the threads'
// processor masks as it found them. What it takes is wall-clock time and
// is not asserted on.
func TestCalibrator(t *testing.T) {
	var before, after cpuMask
	if !affinity(syscall.SYS_SCHED_GETAFFINITY, &before) {
		t.Skip("cannot read the processor mask here")
	}
	c := newCalibrator(2)
	if took := c.measure(); took <= 0 {
		t.Errorf("a calibration took %v ms", took)
	}
	for _, th := range c.threads {
		if th.at == 0 || th.window != calReps {
			t.Errorf("a thread walked to %d and scattered %d windows, want a walk and %d windows", th.at, th.window, calReps)
		}
	}
	undo := pinToCPU(0)
	undo()
	affinity(syscall.SYS_SCHED_GETAFFINITY, &after)
	if before != after {
		t.Errorf("processor mask %v after pinning and undoing, was %v", after, before)
	}
}

// A single sender and a server that stalls the first request: the
// queries that fell due during the stall are sent late, their latency
// is counted from when they were due, and the lateness is reported.
// All assertions are lower bounds a sleep guarantees.
func TestOpenLoopCountsFromDueTime(t *testing.T) {
	const stall = 80 * time.Millisecond
	first := make(chan struct{}, 1)
	first <- struct{}{}
	ts, o := newTestServer(t, func(w http.ResponseWriter, r *http.Request, next http.Handler) {
		select {
		case <-first:
			time.Sleep(stall)
		default:
		}
		next.ServeHTTP(w, r)
	})
	d := testDoer(t, ts.URL, o, false, queryBody{OmitRows: true})
	due := []time.Duration{0, time.Millisecond, 2 * time.Millisecond}
	p := runOpen(context.Background(), []doer{d}, due, 10*time.Millisecond, passOpts{full: true, traceSlice: time.Hour})
	if err := p.firstError(); err != nil {
		t.Fatal(err)
	}
	if len(p.samples) != len(due) {
		t.Fatalf("%d samples, want %d", len(p.samples), len(due))
	}
	for i, s := range p.samples {
		if s.due != due[i] {
			t.Errorf("sample %d due at %v, want %v", i, s.due, due[i])
		}
		if i == 0 {
			if s.total < stall {
				t.Errorf("stalled query took %v, less than the stall", s.total)
			}
			continue
		}
		if queued := stall - due[i]; s.lateness < queued || s.total < queued {
			t.Errorf("query due at %v: lateness %v, latency %v; both must include the %v it queued behind the stall",
				due[i], s.lateness, s.total, queued)
		}
		if s.total < s.lateness+s.firstByte {
			t.Errorf("query %d: latency %v is not counted from its due time", i, s.total)
		}
	}
	if p.window < stall {
		t.Errorf("window %v ended before the last answer", p.window)
	}
	layers := perLayer(&workloadSpec{limitMs: 1}, layerInputs{traced: p})
	if got := layers["client.lateness_ms_p90"]; got < ms(stall-due[2]) {
		t.Errorf("client.lateness_ms_p90 = %vms, want at least %v", got, stall-due[2])
	}
	if got := layers["client.slo_miss_share"]; got != 1 {
		t.Errorf("client.slo_miss_share = %v with a 1ms limit, want 1", got)
	}
	// Self time: each query's spans account for exactly its latency.
	self := selfTimes(p.spans)
	perQuery := map[int]time.Duration{}
	for i, sp := range p.spans {
		perQuery[sp.qid] += self[i]
	}
	for _, sp := range p.spans {
		if sp.parent < 0 && perQuery[sp.qid] != sp.end-sp.start {
			t.Errorf("query %d: self times sum to %v, the query took %v", sp.qid, perQuery[sp.qid], sp.end-sp.start)
		}
	}
}

// 429s, short bodies and corrupt frames are failed queries, whatever
// the encoding.
func TestFailuresLandInFailedShare(t *testing.T) {
	record := func(next http.Handler, r *http.Request) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		next.ServeHTTP(rec, r)
		return rec
	}
	cases := []struct {
		name   string
		binary bool
		mangle func(w http.ResponseWriter, r *http.Request, next http.Handler)
		want   string
	}{
		{"429", false, func(w http.ResponseWriter, r *http.Request, next http.Handler) {
			w.Header().Set("Retry-After", "0")
			http.Error(w, `{"error":"admission queue at watermark"}`, http.StatusTooManyRequests)
		}, "status 429"},
		{"short ndjson", false, func(w http.ResponseWriter, r *http.Request, next http.Handler) {
			body := record(next, r).Body.Bytes()
			w.Write(body[:len(body)*2/3]) //nolint:errcheck // test server
		}, "short body"},
		{"ndjson without footer", false, func(w http.ResponseWriter, r *http.Request, next http.Handler) {
			body := record(next, r).Body.Bytes()
			w.Write(body[:bytes.LastIndexByte(body[:len(body)-1], '\n')+1]) //nolint:errcheck // test server
		}, "footer line"},
		{"short binary", true, func(w http.ResponseWriter, r *http.Request, next http.Handler) {
			body := record(next, r).Body.Bytes()
			w.Write(body[:len(body)/2]) //nolint:errcheck // test server
		}, "corrupt stream"},
		{"crc", true, func(w http.ResponseWriter, r *http.Request, next http.Handler) {
			body := record(next, r).Body.Bytes()
			body[len(body)/3] ^= 0x40 // inside a column chunk's payload
			w.Write(body)             //nolint:errcheck // test server
		}, "CRC mismatch"},
		{"wrong cell", false, func(w http.ResponseWriter, r *http.Request, next http.Handler) {
			body := record(next, r).Body.Bytes()
			i := bytes.Index(body, []byte(`"rows":[[`)) + len(`"rows":[[`)
			body[i] = '1' + (body[i]-'0')%9 // a different leading digit
			w.Write(body)                   //nolint:errcheck // test server
		}, "row checksum"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ts, o := newTestServer(t, c.mangle)
			d := testDoer(t, ts.URL, o, c.binary, queryBody{})
			p := runClosed(context.Background(), []doer{d}, time.Hour, 2, passOpts{})
			if len(p.samples) != 2 {
				t.Fatalf("%d samples, want 2", len(p.samples))
			}
			err := p.firstError()
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %v, want one mentioning %q", err, c.want)
			}
			if got, want := p.samples[0].rejected, map[bool]int{true: maxRejections}[c.name == "429"]; got != want {
				t.Errorf("%d attempts rejected, want %d", got, want)
			}
			e2e := endToEnd(&workloadSpec{limitMs: 1e9}, p, counters{}, counters{}, nil, 1)
			if e2e["ok_share"] != 0 || e2e["within_limit_share"] != 0 || e2e["queries_per_s"] != 0 {
				t.Errorf("ok_share %v, within_limit_share %v, queries_per_s %v; want all 0",
					e2e["ok_share"], e2e["within_limit_share"], e2e["queries_per_s"])
			}
		})
	}
}

// The library result, the binary decode and the NDJSON parse of one
// (seed, N, pi) carry the same order-insensitive checksum — the
// oracle's — and pass the per-row closed-form check; a row limit's
// checksum is learned from the first full check and then enforced.
func TestThreeEncodingsAgree(t *testing.T) {
	ts, o := newTestServer(t, nil)
	for _, binary := range []bool{false, true} {
		d := testDoer(t, ts.URL, o, binary, queryBody{Compression: "on"})
		if !d.exp.sumSet || d.exp.sum != o.sum {
			t.Fatal("an all-rows expectation must carry the oracle's checksum")
		}
		for _, full := range []bool{true, false} {
			if s := d.do(full); !s.ok() {
				t.Fatalf("binary=%v full=%v: %v", binary, full, s.err)
			} else if s.bytes == 0 || s.timing.TotalMs <= 0 {
				t.Errorf("binary=%v: %d body bytes, footer total %vms", binary, s.bytes, s.timing.TotalMs)
			}
		}
	}
	larger, smaller, err := buildPair(testN, testPi, testSeed)
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range []rd.Strategy{rd.DSMPostDecluster, rd.NSMPrePhash} {
		q := joinQuery(larger, smaller, testPi)
		q.Strategy = st
		res, err := rd.ProjectJoin(q)
		if err != nil {
			t.Fatal(err)
		}
		if err := checkResult(res, o); err != nil {
			t.Errorf("%v: %v", st, err)
		}
		res.Cols[1][0]++
		if err := checkResult(res, o); err == nil {
			t.Errorf("%v: a changed cell passed the check", st)
		}
	}

	limited := testDoer(t, ts.URL, o, true, queryBody{Limit: 100})
	if s := limited.do(false); s.ok() {
		t.Fatal("a limited response passed before any full check had set its checksum")
	}
	if s := limited.do(true); !s.ok() {
		t.Fatal(s.err)
	}
	if s := limited.do(false); !s.ok() {
		t.Fatal(s.err)
	}
	omit := testDoer(t, ts.URL, o, false, queryBody{OmitRows: true})
	if s := omit.do(false); !s.ok() {
		t.Fatal(s.err)
	}
}

// Span recording alternates by slice of the pass a query starts in,
// and bench.trace_overhead_ratio sets the traced queries' median
// latency against the others'.
func TestTraceSlicesAlternate(t *testing.T) {
	var l clientLog
	o := passOpts{traceSlice: time.Second}
	for i, due := range []time.Duration{0, 999 * time.Millisecond, time.Second, 1500 * time.Millisecond, 2 * time.Second} {
		total := 10 * time.Millisecond
		if (due/time.Second)%2 == 0 {
			total = 11 * time.Millisecond
		}
		l.record(0, sample{due: due, total: total, firstByte: total}, o)
		if got, want := l.samples[i].traced, (due/time.Second)%2 == 0; got != want {
			t.Errorf("query due at %v: traced %v, want %v", due, got, want)
		}
	}
	roots := 0
	for _, sp := range l.spans {
		if sp.parent < 0 {
			roots++
		}
	}
	if roots != 3 {
		t.Errorf("%d span trees, want one for each of the 3 traced queries", roots)
	}
	p := gather(time.Now(), []clientLog{l})
	if got := perLayer(&workloadSpec{limitMs: 1e9}, layerInputs{traced: p})["bench.trace_overhead_ratio"]; got != 1.1 {
		t.Errorf("bench.trace_overhead_ratio = %v, want 11ms / 10ms", got)
	}
	var untraced clientLog
	untraced.record(0, sample{due: 0}, passOpts{})
	if untraced.samples[0].traced || len(untraced.spans) != 0 {
		t.Error("a pass without a trace slice recorded spans")
	}
}

func TestParseRowsLine(t *testing.T) {
	var got [][]int32
	emit := func(r []int32) error { got = append(got, append([]int32(nil), r...)); return nil }
	if err := parseRowsLine([]byte(`{"rows":[[1,-2],[2147483647,-2147483648]]}`), make([]int32, 2), emit); err != nil {
		t.Fatal(err)
	}
	if want := [][]int32{{1, -2}, {2147483647, -2147483648}}; !reflect.DeepEqual(got, want) {
		t.Errorf("rows %v, want %v", got, want)
	}
	if err := parseRowsLine([]byte(`{"rows":[]}`), make([]int32, 2), emit); err != nil {
		t.Errorf("empty chunk: %v", err)
	}
	for _, bad := range []string{
		`{"rows":[[1,2,3]]}`, `{"rows":[[1]]}`, `{"rows":[[1,2]`, `{"rows":[[1,x]]}`, `{"rows":[[1,2]][3,4]]}`,
		`{"rowsStreamed":0}`, `{"rows":[[1,]]}`, `{"rows":[[,1]]}`, `{"rows":[1,2]}`, ``,
	} {
		if err := parseRowsLine([]byte(bad), make([]int32, 2), emit); err == nil {
			t.Errorf("%q parsed without error", bad)
		}
	}
}

func TestHeapTrailer(t *testing.T) {
	pauses := make([]string, 256)
	for i := range pauses {
		pauses[i] = "0"
	}
	pauses[0], pauses[1], pauses[2] = "100", "200", "300"
	trailer := "heap profile: 1: 2 [3: 4] @ heap/1048576\n\n# runtime.MemStats\n# Alloc = 5\n# TotalAlloc = 802815608\n# Mallocs = 1079428\n" +
		"# PauseNs = [" + strings.Join(pauses, " ") + "]\n# NumGC = 3\n# NumForcedGC = 0\n"
	h, err := parseHeapTrailer(strings.NewReader(trailer))
	if err != nil {
		t.Fatal(err)
	}
	if h.TotalAlloc != 802815608 || h.Mallocs != 1079428 || h.NumGC != 3 || len(h.PauseNs) != 256 {
		t.Errorf("parsed %+v", h)
	}
	if got := h.pauseSince(heapStats{NumGC: 1}); got != 500 {
		t.Errorf("pauses of cycles 2 and 3 sum to %v, want 500", got)
	}
	if got := h.pauseSince(h); got != 0 {
		t.Errorf("no cycles, pause %v", got)
	}
	if _, err := parseHeapTrailer(strings.NewReader("heap profile: nothing\n")); err == nil {
		t.Error("a profile without the MemStats trailer parsed")
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDecl{Name: "query_ms_p50", Better: "lower", Bound: 0.1}
	higher := metricDecl{Name: "queries_per_s", Better: "higher", Bound: 0.1}
	steady := []float64{100, 101, 99, 100, 100}
	for _, c := range []struct {
		m    metricDecl
		a, b []float64
		want string
	}{
		{lower, steady, []float64{105, 106, 104, 105, 105}, "within"},
		{lower, steady, []float64{115, 116, 114, 115, 115}, "worse"},
		{lower, steady, []float64{80, 81, 79, 80, 80}, "within"},
		{higher, steady, []float64{80, 81, 79, 80, 80}, "worse"},
		{higher, steady, []float64{120, 121, 119, 120, 120}, "within"},
		{lower, steady, []float64{60, 140, 100, 90, 120}, "unresolved"},
		{lower, []float64{60, 140, 100, 90, 120}, steady, "unresolved"},
	} {
		if _, got := verdict(c.m, c.a, c.b); got != c.want {
			t.Errorf("%s, A %v, B %v: verdict %q, want %q", c.m.Name, c.a, c.b, got, c.want)
		}
	}
	if by, _ := verdict(higher, steady, []float64{80, 81, 79, 80, 80}); by < 0.19 || by > 0.21 {
		t.Errorf("worse by %v, want 0.2 of A's median", by)
	}
}

// Every name is made of the characters the contract allows, the Go
// workload table and BENCHMARK.json name the same workloads, and the
// set of metrics computed equals the set declared, for both kinds of
// run.
func TestNamesMatchBenchmarkJSON(t *testing.T) {
	decl, err := loadDecl("..")
	if err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	check := func(name string) {
		t.Helper()
		if !nameRE.MatchString(name) {
			t.Errorf("name %q has characters outside [A-Za-z0-9_.-]", name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	var declared []string
	for _, w := range decl.Workloads {
		check(w.Name)
		declared = append(declared, w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	var table []string
	for _, w := range workloads {
		if w.ungated {
			check(w.name)
		} else {
			table = append(table, w.name)
		}
	}
	if !reflect.DeepEqual(declared, table) {
		t.Errorf("BENCHMARK.json declares workloads %v, the harness gates %v", declared, table)
	}
	if len(decl.PerLayer) > 128 || len(decl.EndToEnd) > 16 {
		t.Errorf("%d end-to-end and %d per-layer metrics exceed the contract's 16 and 128", len(decl.EndToEnd), len(decl.PerLayer))
	}
	hasSetup := false
	for _, m := range decl.EndToEnd {
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if !hasSetup {
		t.Error("end_to_end has no setup_s in s, lower is better")
	}

	// One tiny in-process pass stands in for both passes of a run.
	ts, o := newTestServer(t, nil)
	w := &workloadSpec{name: "test", n: testN, pi: testPi, pairs: 1, compression: "on", limitMs: 1e9}
	d := testDoer(t, ts.URL, o, true, queryBody{Compression: "on"})
	p := runClosed(context.Background(), []doer{d}, time.Hour, 3, passOpts{full: true, traceSlice: time.Hour})
	if err := p.firstError(); err != nil {
		t.Fatal(err)
	}
	probes, spans, err := runProbes(w, testSeed, time.Now(), probeSizes{figureN: testN, operatorN: 1 << 15})
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) == 0 {
		t.Error("the probes recorded no spans")
	}
	if probes["compress.saved_mb_per_query"] <= 0 {
		t.Error("compress.saved_mb_per_query is 0 on a compressed workload")
	}
	computed := map[bool]map[string]float64{
		false: endToEnd(w, p, counters{}, counters{}, []float64{1}, 1),
		true:  perLayer(w, layerInputs{traced: p, probes: probes}),
	}
	for trace, values := range computed {
		var want, got []string
		for _, m := range decl.metricsFor(trace) {
			check(m.Name)
			want = append(want, m.Name)
			if !regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`).MatchString(m.Unit) {
				t.Errorf("%s: unit %q", m.Name, m.Unit)
			}
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s: better %q", m.Name, m.Better)
			}
		}
		for name := range values {
			got = append(got, name)
		}
		sort.Strings(want)
		sort.Strings(got)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("trace=%v: computed metrics\n%v\ndeclared\n%v", trace, got, want)
		}
	}
	if got := computed[true]["wire.bytes_per_query"]; got != 0 {
		t.Errorf("wire.bytes_per_query = %v without a status delta", got)
	}

	// The trace file is valid JSON with one event per span.
	path := t.TempDir() + "/trace.json"
	if err := writeChromeTrace(path, "test", append(p.spans, spans...)); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct{ TraceEvents []map[string]any }
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) != 1+len(p.spans)+len(spans) {
		t.Errorf("%d trace events for %d spans", len(doc.TraceEvents), len(p.spans)+len(spans))
	}
}
