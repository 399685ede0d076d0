package server

// POST /v1/query: decode a query spec against registered relations,
// apply backpressure, execute on the shared runtime, and stream the
// result in the negotiated encoding.
//
// Two encodings share one stream shape (header, row data in chunks,
// footer) and one schema (wire.Header / wire.Footer):
//
//   - NDJSON (the default): one header line, row-chunk lines of 8192
//     rows, a footer line. Every chunk is flushed as it encodes, so
//     transfer memory stays bounded by the chunk size and clients
//     consume rows before the encode finishes.
//   - Binary columnar (Accept: application/x-radix-columnar): the
//     internal/wire frame stream, in row bands whose column frames
//     each carry binaryFrameBytes of values. Column chunks are
//     written straight from the result columns' memory — no
//     per-value re-encoding, no per-row allocation — with encode
//     scratch leased per request from the server's mempool arena and
//     released on handler exit.
//     wireCompression=auto additionally block-compresses chunks that
//     shrink, trading a little CPU for wire bytes the same way the
//     engine trades it for bus bytes.

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	rd "radixdecluster"

	"radixdecluster/internal/wire"
)

// QueryRequest is the POST /v1/query body. Larger and Smaller name
// registered relations; everything else is optional.
type QueryRequest struct {
	Larger  string `json:"larger"`
	Smaller string `json:"smaller"`
	// LargerKey / SmallerKey default to "key".
	LargerKey  string `json:"largerKey"`
	SmallerKey string `json:"smallerKey"`
	// LargerProject / SmallerProject default to every non-key column
	// of the respective relation.
	LargerProject  []string `json:"largerProject"`
	SmallerProject []string `json:"smallerProject"`
	// Strategy is a canonical strategy name ("auto",
	// "DSM-post-decluster", "NSM-pre-phash", ...); empty means auto.
	Strategy string `json:"strategy"`
	// Parallelism: omitted or -1 is every worker the runtime has
	// (AutoParallelism); 0 forces the serial paper mode; n >= 1 is the
	// explicit nominal worker count, at most maxParallelismPerWorker
	// times the runtime's workers.
	Parallelism *int `json:"parallelism"`
	// Compression: "", "off", "auto" or "on"; "auto" runs raw, like
	// "off" (rd.CompressionAuto).
	Compression string `json:"compression"`
	// Trace records span events; the footer reports the span count.
	Trace bool `json:"trace"`
	// Limit caps the rows streamed back (0 = all; negative is
	// rejected). The join still computes the full result; this only
	// trims the transfer.
	Limit int `json:"limit"`
	// OmitRows suppresses row chunks entirely — header and footer
	// only. For load generators and capacity tests that want engine
	// work without transfer cost.
	OmitRows bool `json:"omitRows"`
	// WireCompression applies only to the binary columnar encoding:
	// "" or "off" sends raw column words, "auto" block-compresses the
	// chunks that shrink (frame-level flag; the decoder is told per
	// frame). Ignored on the NDJSON leg.
	WireCompression string `json:"wireCompression"`
}

// The stream documents are shared with the binary encoding: the
// NDJSON header/footer lines and the binary header/footer frame
// payloads are the same JSON by construction.
type (
	queryHeader = wire.Header
	queryFooter = wire.Footer
)

// queryChunk is a row-chunk NDJSON line, as appendRowChunk writes it.
type queryChunk struct {
	Rows [][]int32 `json:"rows"`
}

// binaryFrameBytes is the column values one binary column frame
// carries by default (64 Ki rows of 4 bytes). A frame that fits an L2
// cache lets the writer's CRC pass and the socket copy read the same
// cache-resident bytes, and moves a result in few large writes: a
// 16 MiB, 4-column answer is 66 frames, where 8192-row bands make 514.
// On a 2 vCPU Xeon, 256 KiB frames streamed that answer no slower
// than 128 KiB or 1 MiB ones, and 256 KiB also fits the declared
// Pentium 4's 512 KB L2.
const binaryFrameBytes = 256 << 10

// maxParallelismPerWorker bounds a request's nominal parallelism to
// this multiple of the runtime's worker count. Nominal parallelism
// fixes the morsel decomposition and the per-worker windows, so its
// cost grows with the value whatever the runtime's size: on 2 workers
// at N = 1 Mi, 2 ran 39 ms, 16384 ran 0.61 s and allocated 179 MB,
// 131072 ran 6.3 s and allocated 1.39 GB. A few times the workers is
// all oversubscription can use.
const maxParallelismPerWorker = 8

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func toWire(t rd.Timing) wire.Timing {
	return wire.Timing{
		ScanMs: ms(t.Scan), JoinMs: ms(t.Join), ReorderJIMs: ms(t.ReorderJI),
		ProjectLargerMs: ms(t.ProjectLarger), ProjectSmallerMs: ms(t.ProjectSmaller),
		DeclusterMs: ms(t.Decluster), QueueMs: ms(t.Queue), TotalMs: ms(t.Total),
	}
}

func parseCompression(s string) (rd.Compression, error) {
	switch s {
	case "", "off":
		return rd.CompressionOff, nil
	case "auto":
		return rd.CompressionAuto, nil
	case "on":
		return rd.CompressionOn, nil
	}
	return 0, fmt.Errorf("unknown compression %q (want off, auto or on)", s)
}

func parseWireCompression(s string) (wire.Compression, error) {
	switch s {
	case "", "off":
		return wire.CompressOff, nil
	case "auto":
		return wire.CompressAuto, nil
	}
	return 0, fmt.Errorf("unknown wireCompression %q (want off or auto)", s)
}

// wantsBinary reports whether the request negotiated the binary
// columnar encoding: any Accept member with the wire media type and a
// weight above zero — q=0 means "not acceptable" (RFC 9110 §12.4.2).
// NDJSON stays the default for absent or other Accept values.
func wantsBinary(r *http.Request) bool {
	for _, accept := range r.Header.Values("Accept") {
		for _, member := range strings.Split(accept, ",") {
			mt, params, _ := strings.Cut(member, ";")
			if strings.EqualFold(strings.TrimSpace(mt), wire.ContentType) && !zeroWeight(params) {
				return true
			}
		}
	}
	return false
}

// zeroWeight reports whether an Accept member's parameters carry the
// weight q=0 (any of 0, 0., 0.0, 0.00, 0.000).
func zeroWeight(params string) bool {
	for _, p := range strings.Split(params, ";") {
		name, v, ok := strings.Cut(strings.TrimSpace(p), "=")
		if ok && strings.EqualFold(name, "q") {
			q, err := strconv.ParseFloat(v, 64)
			return err == nil && q == 0
		}
	}
	return false
}

// nonKeyColumns returns rel's columns except the join key, the
// default projection list.
func nonKeyColumns(rel *rd.Relation, key string) []string {
	var out []string
	for _, n := range rel.ColumnNames() {
		if n != key {
			out = append(out, n)
		}
	}
	return out
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		methodNotAllowed(w, http.MethodPost)
		return
	}

	// Join the in-flight set BEFORE checking the drain flag: Drain
	// flips the flag first and then waits, so any request it can miss
	// seeing here is one that will observe draining and bail.
	s.inflight.Add(1)
	defer s.inflight.Done()
	if s.draining.Load() {
		s.drained.Add(1)
		jsonError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	s.active.Add(1)
	defer s.active.Add(-1)

	var req QueryRequest
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	err := dec.Decode(&req)
	if err == nil {
		// The body is one JSON object: whatever follows it but white
		// space makes the request malformed, not a second query.
		if _, err = dec.Token(); err == io.EOF {
			err = nil
		} else if err == nil {
			err = errors.New("data after the request object")
		}
	}
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			jsonError(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("request body exceeds %d bytes", s.cfg.MaxBodyBytes))
			return
		}
		jsonError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}

	larger, ok := s.relation(req.Larger)
	if !ok {
		jsonError(w, http.StatusNotFound, fmt.Sprintf(
			"unknown relation %q (registered: %s)", req.Larger, strings.Join(s.sortedNames(), ", ")))
		return
	}
	smaller, ok := s.relation(req.Smaller)
	if !ok {
		jsonError(w, http.StatusNotFound, fmt.Sprintf(
			"unknown relation %q (registered: %s)", req.Smaller, strings.Join(s.sortedNames(), ", ")))
		return
	}

	q := rd.JoinQuery{
		Larger: larger, Smaller: smaller,
		LargerKey: req.LargerKey, SmallerKey: req.SmallerKey,
		Runtime: s.cfg.Runtime,
		Trace:   req.Trace,
	}
	if q.LargerKey == "" {
		q.LargerKey = "key"
	}
	if q.SmallerKey == "" {
		q.SmallerKey = "key"
	}
	q.LargerProject = req.LargerProject
	if q.LargerProject == nil {
		q.LargerProject = nonKeyColumns(larger, q.LargerKey)
	}
	q.SmallerProject = req.SmallerProject
	if q.SmallerProject == nil {
		q.SmallerProject = nonKeyColumns(smaller, q.SmallerKey)
	}
	if req.Strategy != "" {
		st, err := rd.ParseStrategy(req.Strategy)
		if err != nil {
			jsonError(w, http.StatusBadRequest, err.Error())
			return
		}
		q.Strategy = st
	}
	comp, err := parseCompression(req.Compression)
	if err != nil {
		jsonError(w, http.StatusBadRequest, err.Error())
		return
	}
	q.Compression = comp
	wireComp, err := parseWireCompression(req.WireCompression)
	if err != nil {
		jsonError(w, http.StatusBadRequest, err.Error())
		return
	}
	binary := wantsBinary(r)
	q.Parallelism = rd.AutoParallelism
	if req.Parallelism != nil {
		q.Parallelism = *req.Parallelism
	}
	most := maxParallelismPerWorker * s.cfg.Runtime.Workers()
	if q.Parallelism < rd.AutoParallelism || q.Parallelism > most {
		jsonError(w, http.StatusBadRequest, fmt.Sprintf(
			"parallelism %d out of range (want -1 for the planner's choice, 0 for serial, or 1..%d)",
			q.Parallelism, most))
		return
	}
	if req.Limit < 0 {
		jsonError(w, http.StatusBadRequest, fmt.Sprintf("limit %d is negative (0 streams every row)", req.Limit))
		return
	}

	// Backpressure: once the runtime's admission queue is deeper than
	// the watermark, queueing more work only grows every query's wait
	// — tell the client to come back instead.
	if s.cfg.Runtime.QueuedQueries() >= s.cfg.QueueWatermark {
		s.rejected.Add(1)
		w.Header().Set("Retry-After", "1")
		jsonError(w, http.StatusTooManyRequests, fmt.Sprintf(
			"admission queue depth %d at watermark %d; retry later",
			s.cfg.Runtime.QueuedQueries(), s.cfg.QueueWatermark))
		return
	}

	if r.Context().Err() != nil {
		return // client already gone: nothing to execute or answer
	}

	s.accepted.Add(1)
	res, err := rd.ProjectJoin(q)
	if err != nil {
		s.failed.Add(1)
		jsonError(w, http.StatusBadRequest, err.Error())
		return
	}
	s.succeeded.Add(1)
	// The result columns are the arena's again once the response is
	// written — or abandoned: stream complete, encode abort and client
	// disconnect all leave through here.
	defer res.Release()
	if binary {
		s.streamBinary(w, &req, res, wireComp)
	} else {
		s.streamNDJSON(w, &req, res)
	}
}

// streamRows resolves how many rows a response transfers (OmitRows
// and Limit trim the transfer, never the result).
func streamRows(req *QueryRequest, res *rd.Result) int {
	if req.OmitRows {
		return 0
	}
	if req.Limit > 0 && req.Limit < res.N {
		return req.Limit
	}
	return res.N
}

func resultHeader(res *rd.Result) queryHeader {
	return queryHeader{
		N: res.N, Names: res.Names, Plan: res.Plan,
		Workers: res.Workers, Compressed: res.Compressed,
	}
}

func resultFooter(res *rd.Result, n int) queryFooter {
	foot := queryFooter{
		RowsStreamed: n,
		Timing:       toWire(res.Timing),
	}
	if res.Trace != nil {
		foot.TraceSpans = res.Trace.Spans()
	}
	return foot
}

// abort records a mid-stream failure by cause: "disconnect" when the
// write side failed (the client went away — routine under load, but
// worth counting), "encode" when the encoder itself failed (a server
// bug: our documents always marshal). Errors here used to be dropped
// on the floor; now they feed
// radixdecluster_server_stream_aborts_total{reason}.
func (s *Server) abort(err error) {
	reason := "disconnect"
	var mte *json.MarshalerError
	var ute *json.UnsupportedTypeError
	var uve *json.UnsupportedValueError
	if errors.As(err, &mte) || errors.As(err, &ute) || errors.As(err, &uve) {
		reason = "encode"
	}
	s.aborts.With(reason).Inc()
}

// streamNDJSON encodes res as NDJSON: header, row chunks, footer.
// Each chunk is flushed as soon as it is encoded. The header and footer
// go through json.Encoder; each row chunk is written by hand into one
// buffer reused chunk after chunk (appendRowChunk) — the bytes
// json.Encoder writes for a queryChunk, without a slice per row or
// reflection per value.
func (s *Server) streamNDJSON(w http.ResponseWriter, req *QueryRequest, res *rd.Result) {
	s.resultsNDJSON.Add(1)
	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)

	if err := enc.Encode(resultHeader(res)); err != nil {
		s.abort(err)
		return
	}

	n := streamRows(req, res)
	var line []byte
	for lo := 0; lo < n; lo += s.ndjsonRows {
		line = appendRowChunk(line[:0], res.Cols, lo, min(lo+s.ndjsonRows, n))
		if _, err := w.Write(line); err != nil {
			s.abort(err)
			return
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
	s.rows.Add(int64(n))

	if err := enc.Encode(resultFooter(res, n)); err != nil {
		s.abort(err)
		return
	}
	if flusher != nil {
		flusher.Flush()
	}
}

// appendRowChunk appends the NDJSON line of rows [lo,hi) of cols to
// dst: {"rows":[[v,…],…]} and a newline, json.Encoder's bytes for the
// queryChunk of those rows.
func appendRowChunk(dst []byte, cols [][]int32, lo, hi int) []byte {
	dst = append(dst, `{"rows":[`...)
	for i := lo; i < hi; i++ {
		if i > lo {
			dst = append(dst, ',')
		}
		dst = append(dst, '[')
		for c, col := range cols {
			if c > 0 {
				dst = append(dst, ',')
			}
			dst = strconv.AppendInt(dst, int64(col[i]), 10)
		}
		dst = append(dst, ']')
	}
	return append(dst, "]}\n"...)
}

// streamBinary encodes res as a binary columnar frame stream: header
// frame, column-chunk frames in row bands of binaryFrameBytes/4 rows
// or an explicit Config.ChunkRows (written straight from the result
// columns' memory, optionally block-compressed per frame), footer
// frame. Encode scratch leases from the server's arena for the life
// of the request.
func (s *Server) streamBinary(w http.ResponseWriter, req *QueryRequest, res *rd.Result, comp wire.Compression) {
	s.resultsBinary.Add(1)
	w.Header().Set("Content-Type", wire.ContentType)
	flusher, _ := w.(http.Flusher)

	lease := s.encPool.NewLease()
	defer lease.Release()
	bw := wire.NewWriter(w, lease, comp)
	defer func() {
		st := bw.Stats()
		s.wireFrames.Add(st.Frames)
		s.wireBytes.Add(st.Bytes)
		s.wireCompBytes.Add(st.CompressedBytes)
	}()

	if err := bw.WriteHeader(resultHeader(res)); err != nil {
		s.abort(err)
		return
	}

	n := streamRows(req, res)
	for lo := 0; lo < n; lo += s.binaryRows {
		hi := min(lo+s.binaryRows, n)
		for c := range res.Cols {
			if err := bw.WriteColumn(c, lo, res.Cols[c][lo:hi]); err != nil {
				s.abort(err)
				return
			}
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
	s.rows.Add(int64(n))

	if err := bw.WriteFooter(resultFooter(res, n)); err != nil {
		s.abort(err)
		return
	}
	if flusher != nil {
		flusher.Flush()
	}
}
