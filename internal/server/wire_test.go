package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	rd "radixdecluster"

	"radixdecluster/internal/wire"
)

// postBinary POSTs a query negotiating the binary columnar encoding.
func postBinary(t *testing.T, url, body string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url+"/v1/query", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Accept", wire.ContentType)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// The core equivalence contract: for every strategy, on a shared
// runtime, the binary leg's decoded rows are byte-identical to the
// NDJSON leg's — same header cardinality, same column values in the
// same order, same footer row count. Run with -race in CI.
func TestBinaryNDJSONEquivalence(t *testing.T) {
	_, ts := newTestServer(t, rd.RuntimeConfig{Workers: 2, MaxConcurrentQueries: 2},
		Config{ChunkRows: 100}, 2000, 2)

	strategies := []string{
		"DSM-post-decluster", "DSM-pre", "NSM-pre-hash",
		"NSM-pre-phash", "NSM-post-decluster", "NSM-post-jive",
	}
	for _, strat := range strategies {
		for _, comp := range []string{"off", "auto"} {
			t.Run(strat+"/"+comp, func(t *testing.T) {
				body := `{"larger":"larger","smaller":"smaller","strategy":"` +
					strat + `","wireCompression":"` + comp + `"}`

				nresp := postQuery(t, ts.URL, body)
				defer nresp.Body.Close()
				if nresp.StatusCode != 200 {
					b, _ := io.ReadAll(nresp.Body)
					t.Fatalf("ndjson status %d: %s", nresp.StatusCode, b)
				}
				want := parseNDJSON(t, nresp.Body)

				bresp := postBinary(t, ts.URL, body)
				defer bresp.Body.Close()
				if bresp.StatusCode != 200 {
					b, _ := io.ReadAll(bresp.Body)
					t.Fatalf("binary status %d: %s", bresp.StatusCode, b)
				}
				if ct := bresp.Header.Get("Content-Type"); ct != wire.ContentType {
					t.Fatalf("Content-Type = %q, want %q", ct, wire.ContentType)
				}
				got, err := wire.Decode(bresp.Body)
				if err != nil {
					t.Fatal(err)
				}

				if got.Header.N != want.header.N || got.Header.Plan != want.header.Plan {
					t.Fatalf("header %+v, want %+v", got.Header, want.header)
				}
				if got.Rows != len(want.rows) {
					t.Fatalf("rows = %d, want %d", got.Rows, len(want.rows))
				}
				if len(got.Cols) != len(want.header.Names) {
					t.Fatalf("cols = %d, want %d", len(got.Cols), len(want.header.Names))
				}
				for i, row := range want.rows {
					for c := range row {
						if got.Cols[c][i] != row[c] {
							t.Fatalf("%s: col %d row %d = %d, ndjson says %d",
								strat, c, i, got.Cols[c][i], row[c])
						}
					}
				}
				if got.Footer.RowsStreamed != want.footer.RowsStreamed {
					t.Fatalf("footer rows %d, want %d", got.Footer.RowsStreamed, want.footer.RowsStreamed)
				}
				if got.Footer.Timing.TotalMs <= 0 {
					t.Fatal("binary footer timing missing")
				}
			})
		}
	}
}

// Nominal parallelism above the runtime's size stays legal up to the
// validated bound: "parallelism": 8 on 2 workers runs as 8 nominal
// workers (N is above exec.MinParallelN, so the parallel operators
// genuinely run) and returns the serial run's bytes.
func TestNominalParallelismAboveWorkers(t *testing.T) {
	_, ts := newTestServer(t, rd.RuntimeConfig{Workers: 2, MaxConcurrentQueries: 2},
		Config{}, 32<<10, 2)
	run := func(parallelism string) *wire.Decoded {
		resp := postBinary(t, ts.URL, `{"larger":"larger","smaller":"smaller","parallelism":`+parallelism+`}`)
		defer resp.Body.Close()
		if resp.StatusCode != 200 {
			b, _ := io.ReadAll(resp.Body)
			t.Fatalf("parallelism %s: status %d: %s", parallelism, resp.StatusCode, b)
		}
		d, err := wire.Decode(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	want, got := run("0"), run("8")
	if got.Header.Workers != 8 {
		t.Fatalf("nominal 8 ran with workers=%d", got.Header.Workers)
	}
	if got.Header.N != want.Header.N || !slices.EqualFunc(got.Cols, want.Cols, slices.Equal[[]int32]) {
		t.Fatal("nominal 8 on a 2-worker runtime differs from the serial bytes")
	}
}

// Negotiation and request semantics on the binary leg: Accept variants
// select the encoding, Limit/OmitRows trim the transfer, auto
// compression kicks in on the workload's smooth payload columns, and
// the wire counters move.
func TestBinaryNegotiationAndSemantics(t *testing.T) {
	_, ts := newTestServer(t, rd.RuntimeConfig{Workers: 2, MaxConcurrentQueries: 2},
		Config{ChunkRows: 1024}, 4000, 2)
	base := `{"larger":"larger","smaller":"smaller","parallelism":0`

	// Accept with q-params and extra members still negotiates binary.
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/query", strings.NewReader(base+`}`))
	req.Header.Set("Accept", "application/json;q=0.5, "+wire.ContentType+";q=0.9")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != wire.ContentType {
		t.Fatalf("q-param Accept: Content-Type = %q", ct)
	}
	if _, err := wire.Decode(resp.Body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	// No Accept (http.Post default) stays NDJSON.
	nresp := postQuery(t, ts.URL, base+`}`)
	if ct := nresp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("default Content-Type = %q", ct)
	}
	io.Copy(io.Discard, nresp.Body) //nolint:errcheck
	nresp.Body.Close()

	// A weight of zero marks the binary type not acceptable (RFC 9110
	// §12.4.2): NDJSON. Any weight above zero still selects it.
	for _, c := range []struct{ accept, want string }{
		{wire.ContentType + ";q=0, application/x-ndjson", "application/x-ndjson"},
		{wire.ContentType + "; Q=0.000", "application/x-ndjson"},
		{wire.ContentType + ";q=0.001, application/x-ndjson;q=0", wire.ContentType},
	} {
		req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/query", strings.NewReader(base+`}`))
		req.Header.Set("Accept", c.accept)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		if ct := resp.Header.Get("Content-Type"); ct != c.want {
			t.Fatalf("Accept %q: Content-Type = %q, want %q", c.accept, ct, c.want)
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
	}

	// Bad wireCompression is a 400.
	bresp := postBinary(t, ts.URL, base+`,"wireCompression":"zstd"}`)
	if bresp.StatusCode != 400 {
		t.Fatalf("wireCompression=zstd: status %d, want 400", bresp.StatusCode)
	}
	io.Copy(io.Discard, bresp.Body) //nolint:errcheck
	bresp.Body.Close()

	// Limit trims the transfer, not the result.
	bresp = postBinary(t, ts.URL, base+`,"limit":37}`)
	lim, err := wire.Decode(bresp.Body)
	bresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if lim.Rows != 37 || lim.Header.N != 4000 || lim.Footer.RowsStreamed != 37 {
		t.Fatalf("limit: rows=%d n=%d footer=%d", lim.Rows, lim.Header.N, lim.Footer.RowsStreamed)
	}

	// OmitRows: header and footer frames only.
	bresp = postBinary(t, ts.URL, base+`,"omitRows":true}`)
	omit, err := wire.Decode(bresp.Body)
	bresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if omit.Rows != 0 || omit.Stats.Frames != 2 {
		t.Fatalf("omitRows: rows=%d frames=%d", omit.Rows, omit.Stats.Frames)
	}

	// Auto compression compresses the smooth payload columns and the
	// status counters reflect everything this test streamed.
	bresp = postBinary(t, ts.URL, base+`,"wireCompression":"auto"}`)
	auto, err := wire.Decode(bresp.Body)
	bresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if auto.Stats.CompressedFrames == 0 || auto.Stats.SavedBytes <= 0 {
		t.Fatalf("auto compression idle on workload payloads: %+v", auto.Stats)
	}

	st := getStatus(t, ts.URL)
	if st.Server.ResultsBinary != 5 || st.Server.ResultsNDJSON != 3 {
		t.Fatalf("results counters = %+v", st.Server)
	}
	if st.Server.WireFrames == 0 || st.Server.WireBytes == 0 || st.Server.WireCompBytes == 0 {
		t.Fatalf("wire counters idle: %+v", st.Server)
	}
}

// errWriter fails after the first n writes — a stand-in for a client
// that disconnects mid-stream.
type errWriter struct {
	n int
}

func (w *errWriter) Header() http.Header { return http.Header{} }
func (w *errWriter) WriteHeader(int)     {}
func (w *errWriter) Write(p []byte) (int, error) {
	if w.n <= 0 {
		return 0, errors.New("broken pipe")
	}
	w.n--
	return len(p), nil
}

// Mid-stream failures are counted, not swallowed: a failing write is a
// "disconnect", an unencodable document would be an "encode". Both
// legs feed radixdecluster_server_stream_aborts_total{reason}.
func TestStreamAbortsCounted(t *testing.T) {
	s, _ := newTestServer(t, rd.RuntimeConfig{Workers: 1, MaxConcurrentQueries: 1},
		Config{ChunkRows: 16}, 512, 1)
	larger, _ := s.relation("larger")
	smaller, _ := s.relation("smaller")
	res, err := rd.ProjectJoin(rd.JoinQuery{
		Larger: larger, Smaller: smaller, LargerKey: "key", SmallerKey: "key",
		LargerProject: []string{"a1"}, SmallerProject: []string{"a1"},
	})
	if err != nil {
		t.Fatal(err)
	}
	req := &QueryRequest{}

	s.streamNDJSON(&errWriter{n: 2}, req, res)
	if v := s.aborts.With("disconnect").Value(); v != 1 {
		t.Fatalf("ndjson disconnect aborts = %v, want 1", v)
	}
	s.streamBinary(&errWriter{n: 1}, req, res, wire.CompressOff)
	if v := s.aborts.With("disconnect").Value(); v != 2 {
		t.Fatalf("binary disconnect aborts = %v, want 2", v)
	}
	if v := s.aborts.With("encode").Value(); v != 0 {
		t.Fatalf("encode aborts = %v, want 0", v)
	}
}

// A client that walks away mid-stream still gives the result columns
// back: handleQuery releases on every exit after a successful
// ProjectJoin, so the arena holds what it held when idle and no
// goroutine is left behind.
func TestDisconnectMidStreamReleasesResult(t *testing.T) {
	s, ts := newTestServer(t, rd.RuntimeConfig{Workers: 2, MaxConcurrentQueries: 2},
		Config{ChunkRows: 1024}, 256<<10, 2)
	const body = `{"larger":"larger","smaller":"smaller","parallelism":2}`
	idle := func() rd.MemPoolStats {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for s.active.Load() != 0 {
			if time.Now().After(deadline) {
				t.Fatal("handler still running 10 s after the client went away")
			}
			time.Sleep(time.Millisecond)
		}
		return s.cfg.Runtime.MemPoolStats()
	}

	// One query read to the end sets the idle figure: every buffer the
	// shape needs, result columns included, is back in the arena.
	resp := postBinary(t, ts.URL, body)
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	want := idle()
	if want.HeldBytes == 0 || want.Leases != 0 {
		t.Fatalf("idle arena after a complete response: %v", want)
	}
	http.DefaultClient.CloseIdleConnections()
	goroutines := runtime.NumGoroutine()

	// 4 MiB of columns do not fit the socket buffers: the handler is
	// blocked in a write when the connection closes under it.
	resp = postBinary(t, ts.URL, body)
	if _, err := io.CopyN(io.Discard, resp.Body, 64<<10); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	got := idle()
	if v := s.aborts.With("disconnect").Value(); v != 1 {
		t.Fatalf("disconnect aborts = %v, want 1", v)
	}
	if got.HeldBytes != want.HeldBytes || got.Leases != 0 {
		t.Fatalf("arena after a disconnect holds %d bytes in %d leases, idle figure is %d in 0",
			got.HeldBytes, got.Leases, want.HeldBytes)
	}
	if d := got.Misses - want.Misses; d != 0 {
		t.Errorf("second identical query missed the arena %d times", d)
	}
	http.DefaultClient.CloseIdleConnections()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > goroutines {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines, %d before the disconnect", runtime.NumGoroutine(), goroutines)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// The default binary response streams cache-sized column frames: a
// result of N >= 256 Ki rows is header + footer + one frame per column
// per band of binaryFrameBytes/4 rows, no column frame carries more
// than binaryFrameBytes of values, and /v1/status counts the same
// frames. 8192-row (32 KiB) frames fail it.
func TestBinaryFrameShape(t *testing.T) {
	if binaryFrameBytes < 256<<10 {
		t.Fatalf("binaryFrameBytes = %d, below the 256 KiB a cache-sized frame starts at", binaryFrameBytes)
	}
	_, ts := newTestServer(t, rd.RuntimeConfig{Workers: 2, MaxConcurrentQueries: 2},
		Config{}, 1<<18+1000, 2)
	resp := postBinary(t, ts.URL, `{"larger":"larger","smaller":"smaller"}`)
	stream, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	d, err := wire.Decode(bytes.NewReader(stream))
	if err != nil {
		t.Fatal(err)
	}
	band := binaryFrameBytes / 4
	want := int64(2 + len(d.Cols)*((d.Rows+band-1)/band))
	if d.Rows < 256<<10 || d.Stats.Frames != want {
		t.Fatalf("%d rows × %d columns in %d frames, want %d", d.Rows, len(d.Cols), d.Stats.Frames, want)
	}
	// Walk the envelopes (wire's stream layout: type, flags, uint32 LE
	// payload length, CRC, then the payload; a column payload opens
	// with a 12-byte prefix).
	frames := int64(0)
	for off := 0; off < len(stream); frames++ {
		n := int(binary.LittleEndian.Uint32(stream[off+2:]))
		if stream[off] == 'C' && n-12 > binaryFrameBytes {
			t.Fatalf("column frame %d carries %d bytes of values, above %d", frames, n-12, binaryFrameBytes)
		}
		off += 10 + n
	}
	if frames != want {
		t.Fatalf("walked %d frames, want %d", frames, want)
	}
	if st := getStatus(t, ts.URL); st.Server.WireFrames != want {
		t.Fatalf("/v1/status wireFrames = %d, want %d", st.Server.WireFrames, want)
	}
}

// encoderNDJSON is the NDJSON stream json.Encoder writes for res under
// req with chunks of chunkRows rows: the header, one queryChunk of
// [][]int32 rows per chunk, the footer — the reference streamNDJSON's
// hand-written row lines are held to.
func encoderNDJSON(t *testing.T, req *QueryRequest, res *rd.Result, chunkRows int) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	docs := []any{resultHeader(res)}
	n := streamRows(req, res)
	for lo := 0; lo < n; lo += chunkRows {
		chunk := queryChunk{Rows: [][]int32{}}
		for i := lo; i < min(lo+chunkRows, n); i++ {
			row := make([]int32, len(res.Cols))
			for c := range res.Cols {
				row[c] = res.Cols[c][i]
			}
			chunk.Rows = append(chunk.Rows, row)
		}
		docs = append(docs, chunk)
	}
	for _, d := range append(docs, resultFooter(res, n)) {
		if err := enc.Encode(d); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// TestNDJSONRowsMatchEncoder: streamNDJSON's row lines, written with
// strconv.AppendInt into one reused buffer, are byte for byte what
// json.Encoder writes for the same rows — for negative values and the
// int32 extremes, zero-width rows, a chunk cut short, Limit and
// OmitRows.
func TestNDJSONRowsMatchEncoder(t *testing.T) {
	s, _ := newTestServer(t, rd.RuntimeConfig{Workers: 1, MaxConcurrentQueries: 1}, Config{ChunkRows: 4}, 64, 1)
	signed := &rd.Result{N: 10, Names: []string{"a", "b", "c"}, Plan: "test", Cols: [][]int32{
		{0, -1, 1, math.MinInt32, math.MaxInt32, -42, 42, -1000000, 7, -7},
		{9, 8, 7, 6, 5, 4, 3, 2, 1, 0},
		{-5, -4, -3, -2, -1, 0, 1, 2, 3, 4},
	}}
	zeroWidth := &rd.Result{N: 6, Plan: "test"}
	for _, c := range []struct {
		name string
		res  *rd.Result
		req  QueryRequest
	}{
		{"signed", signed, QueryRequest{}},
		{"signed, limit", signed, QueryRequest{Limit: 5}},
		{"signed, omit rows", signed, QueryRequest{OmitRows: true}},
		{"zero width", zeroWidth, QueryRequest{}},
		{"zero width, limit", zeroWidth, QueryRequest{Limit: 4}},
	} {
		rec := httptest.NewRecorder()
		s.streamNDJSON(rec, &c.req, c.res)
		if want := encoderNDJSON(t, &c.req, c.res, 4); !bytes.Equal(rec.Body.Bytes(), want) {
			t.Errorf("%s: streamNDJSON wrote\n%s\njson.Encoder\n%s", c.name, rec.Body.Bytes(), want)
		}
	}
}
