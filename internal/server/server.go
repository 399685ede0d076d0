// Package server is the query service daemon behind cmd/joinserve:
// an HTTP front door for one process-wide radixdecluster.Runtime.
//
// The runtime is already a multi-tenant scheduler — fair query-tagged
// morsel scheduling, admission control, arena-pooled execution
// memory — and this package adds the three things a network service
// needs on top:
//
//   - A JSON API over named, pre-registered relations: POST /v1/query
//     executes a project-join with per-request strategy, parallelism,
//     compression and trace options; GET /v1/relations lists what can
//     be queried; GET /v1/status reports queue depth, scheduler and
//     memory-pool statistics.
//   - Chunked result streaming — NDJSON by default, or the binary
//     columnar wire format (internal/wire) when the client negotiates
//     it via Accept — so large projections are encoded and flushed
//     chunk by chunk instead of buffered whole.
//   - Explicit backpressure and drain: 429 + Retry-After once the
//     admission queue crosses a watermark, 503 during drain, and a
//     Drain that waits for in-flight queries so SIGTERM never kills a
//     running query.
//
// Telemetry reuses internal/obs end to end: the handler mux IS
// obs.NewMux — /metrics renders the runtime's series (via the public
// Runtime.WritePrometheus hook) concatenated with the server's own
// HTTP series, and /debug/pprof comes along for free.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	rd "radixdecluster"

	"radixdecluster/internal/mempool"
	"radixdecluster/internal/obs"
)

// Config configures a Server.
type Config struct {
	// Runtime is the shared execution runtime every query runs on.
	// Required. Build it with RuntimeConfig.Metrics so /metrics has
	// runtime series to render.
	Runtime *rd.Runtime
	// QueueWatermark is the backpressure threshold: when the runtime's
	// admission queue depth reaches it, POST /v1/query answers 429
	// with a Retry-After header instead of queueing more work behind
	// an already-saturated machine. <= 0 derives 2 ×
	// Runtime.MaxConcurrentQueries() — enough queue to keep admission
	// busy, shallow enough that waiting is shorter than retrying.
	QueueWatermark int
	// MaxBodyBytes caps a query request body; larger bodies get 413.
	// <= 0 selects 1 MiB — generous for a query spec, small enough
	// that a misdirected bulk upload cannot balloon the daemon.
	MaxBodyBytes int64
	// ChunkRows is the number of result rows encoded and flushed per
	// chunk, on both encodings: per NDJSON row-chunk line, and per
	// binary row band (one column frame per column). <= 0 selects
	// 8192 rows for NDJSON (~64 KiB chunks for a 2-column result) and
	// 64 Ki rows for binary, so each column frame carries 256 KiB of
	// values.
	ChunkRows int
}

// Server routes HTTP requests onto a shared runtime. Create with New,
// register relations with Register, mount Handler on a listener, and
// call BeginDrain + Drain on shutdown.
type Server struct {
	cfg   Config
	mux   *http.ServeMux
	start time.Time

	relMu sync.RWMutex
	rels  map[string]*rd.Relation
	order []string // registration order, for stable listings

	draining atomic.Bool
	inflight sync.WaitGroup
	active   atomic.Int64

	// Server-level counters (the runtime keeps its own).
	accepted  atomic.Int64 // queries dispatched to the runtime
	succeeded atomic.Int64
	failed    atomic.Int64 // dispatched but errored
	rejected  atomic.Int64 // 429 backpressure
	drained   atomic.Int64 // 503 during drain
	rows      atomic.Int64 // result rows streamed

	// Result-encoding counters: which leg served each result, and the
	// binary leg's wire accounting (frames, bytes on the wire, bytes
	// that went out block-compressed).
	resultsNDJSON atomic.Int64
	resultsBinary atomic.Int64
	wireFrames    atomic.Int64
	wireBytes     atomic.Int64
	wireCompBytes atomic.Int64

	// ndjsonRows and binaryRows are the row chunk of each encoding
	// (Config.ChunkRows, or each encoding's default).
	ndjsonRows, binaryRows int

	// encPool backs per-request binary encode scratch: each streaming
	// handler takes a lease, compressed frames encode into recycled
	// size-classed buffers, and the lease releases on handler exit.
	encPool *mempool.Pool

	reg    *obs.Registry // server-level metric series
	hm     *obs.HTTPMetrics
	aborts *obs.CounterVec // mid-stream failures by reason
}

// New builds a server around cfg.Runtime.
func New(cfg Config) (*Server, error) {
	if cfg.Runtime == nil {
		return nil, errors.New("server: Config.Runtime is required")
	}
	if cfg.QueueWatermark <= 0 {
		cfg.QueueWatermark = 2 * cfg.Runtime.MaxConcurrentQueries()
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 1 << 20
	}
	s := &Server{
		cfg:        cfg,
		start:      time.Now(),
		rels:       make(map[string]*rd.Relation),
		reg:        obs.NewRegistry(),
		encPool:    mempool.New(0),
		ndjsonRows: cfg.ChunkRows,
		binaryRows: cfg.ChunkRows,
	}
	if cfg.ChunkRows <= 0 {
		s.ndjsonRows, s.binaryRows = 8192, binaryFrameBytes/4
	}
	s.hm = obs.NewHTTPMetrics(s.reg, "radixdecluster_server")
	s.reg.CounterFunc("radixdecluster_server_queries_accepted_total",
		"Queries dispatched to the runtime.",
		func() float64 { return float64(s.accepted.Load()) })
	s.reg.CounterFunc("radixdecluster_server_queries_rejected_total",
		"Queries rejected with 429 because the admission queue crossed the watermark.",
		func() float64 { return float64(s.rejected.Load()) })
	s.reg.CounterFunc("radixdecluster_server_result_rows_total",
		"Result rows streamed to clients.",
		func() float64 { return float64(s.rows.Load()) })
	s.reg.CounterFuncs("radixdecluster_server_results_total",
		"Results streamed, by negotiated encoding.", "format",
		[]obs.FuncSeries{
			{Label: "ndjson", Fn: func() float64 { return float64(s.resultsNDJSON.Load()) }},
			{Label: "binary", Fn: func() float64 { return float64(s.resultsBinary.Load()) }},
		})
	s.reg.CounterFunc("radixdecluster_server_wire_frames_total",
		"Binary columnar frames written (header, column chunk and footer frames).",
		func() float64 { return float64(s.wireFrames.Load()) })
	s.reg.CounterFunc("radixdecluster_server_wire_bytes_total",
		"Bytes written on the binary columnar leg, frame envelopes included.",
		func() float64 { return float64(s.wireBytes.Load()) })
	s.reg.CounterFunc("radixdecluster_server_wire_compressed_bytes_total",
		"Encoded payload bytes of column chunks that went out block-compressed.",
		func() float64 { return float64(s.wireCompBytes.Load()) })
	s.aborts = s.reg.CounterVec("radixdecluster_server_stream_aborts_total",
		"Result streams aborted mid-flight, by reason: disconnect (client went away) or encode (serialisation failed).",
		"reason")
	s.reg.GaugeFunc("radixdecluster_server_draining",
		"1 while the server is draining (rejecting new queries), else 0.",
		func() float64 {
			if s.draining.Load() {
				return 1
			}
			return 0
		})

	// One mux, one telemetry path: /metrics renders runtime + server
	// series, pprof rides along (obs.NewMux), and the API routes are
	// added on the same mux.
	s.mux = obs.NewMux(cfg.Runtime, s.reg)
	s.mux.Handle("/v1/query", s.hm.Wrap("/v1/query", http.HandlerFunc(s.handleQuery)))
	s.mux.Handle("/v1/relations", s.hm.Wrap("/v1/relations", http.HandlerFunc(s.handleRelations)))
	s.mux.Handle("/v1/status", s.hm.Wrap("/v1/status", http.HandlerFunc(s.handleStatus)))
	return s, nil
}

// Register makes rel queryable under rel.Name. Registration is
// typically done before serving; it is safe concurrently with
// queries, but a name can only be bound once.
func (s *Server) Register(rel *rd.Relation) error {
	if rel == nil || rel.Name == "" {
		return errors.New("server: relation must be non-nil and named")
	}
	s.relMu.Lock()
	defer s.relMu.Unlock()
	if _, dup := s.rels[rel.Name]; dup {
		return fmt.Errorf("server: relation %q already registered", rel.Name)
	}
	s.rels[rel.Name] = rel
	s.order = append(s.order, rel.Name)
	return nil
}

// Handler returns the server's HTTP handler: the API routes plus
// /metrics and /debug/pprof on one mux.
func (s *Server) Handler() http.Handler { return s.mux }

// BeginDrain flips the server into drain mode: every subsequent
// query answers 503 ("draining") while in-flight queries keep
// running. Idempotent.
func (s *Server) BeginDrain() { s.draining.Store(true) }

// Drain blocks until every in-flight query has completed (streaming
// included) or ctx expires. Call BeginDrain first so the in-flight
// set can only shrink.
func (s *Server) Drain(ctx context.Context) error {
	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("server: drain: %d queries still in flight: %w",
			s.active.Load(), ctx.Err())
	}
}

// relation resolves a registered relation by name.
func (s *Server) relation(name string) (*rd.Relation, bool) {
	s.relMu.RLock()
	defer s.relMu.RUnlock()
	r, ok := s.rels[name]
	return r, ok
}

// RelationInfo is one entry of GET /v1/relations.
type RelationInfo struct {
	Name       string   `json:"name"`
	Rows       int      `json:"rows"`
	Columns    []string `json:"columns"`
	Compressed bool     `json:"compressed"`
	// JoinImageBytes is what the relation's join images hold
	// (rd.Relation.JoinImageBytes): per key column joined on, 4 B per
	// tuple of key hashes; 4 B per tuple for each column held raw in
	// image order — every column raw runtime queries projected from it;
	// the encoded bytes of each image-order column compressed queries
	// projected; plus the partition offsets. 0 until a runtime u/u query
	// (the Auto plan) joins it.
	JoinImageBytes int64 `json:"joinImageBytes"`
}

func (s *Server) handleRelations(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		methodNotAllowed(w, http.MethodGet)
		return
	}
	s.relMu.RLock()
	out := make([]RelationInfo, 0, len(s.order))
	for _, name := range s.order {
		rel := s.rels[name]
		out = append(out, RelationInfo{
			Name: name, Rows: rel.Len(),
			Columns: rel.ColumnNames(), Compressed: rel.Compressed(),
			JoinImageBytes: rel.JoinImageBytes(),
		})
	}
	s.relMu.RUnlock()
	writeJSON(w, http.StatusOK, out)
}

// Status is the GET /v1/status document: the runtime's scheduling /
// admission / memory counters plus the server's own.
type Status struct {
	// Runtime capacity and load.
	Workers              int `json:"workers"`
	MaxConcurrentQueries int `json:"maxConcurrentQueries"`
	ActiveQueries        int `json:"activeQueries"`
	QueuedQueries        int `json:"queuedQueries"`
	// Deprecated: SharedScanHits is always 0 (scan sharing was removed);
	// it stays because benchmark/metrics.go reads it.
	SharedScanHits int64 `json:"sharedScanHits"`
	// Scheduler counters (lifetime).
	Sched rd.SchedStats `json:"sched"`
	// Execution-memory arena.
	MemPool rd.MemPoolStats `json:"memPool"`
	// Server-level counters.
	Server ServerStatus `json:"server"`
}

// ServerStatus is the server-level half of Status.
type ServerStatus struct {
	UptimeSeconds float64 `json:"uptimeSeconds"`
	Draining      bool    `json:"draining"`
	InflightNow   int64   `json:"inflight"`
	Accepted      int64   `json:"queriesAccepted"`
	Succeeded     int64   `json:"queriesSucceeded"`
	Failed        int64   `json:"queriesFailed"`
	Rejected429   int64   `json:"queriesRejected"`
	RejectedDrain int64   `json:"queriesRejectedDraining"`
	RowsStreamed  int64   `json:"rowsStreamed"`
	ResultsNDJSON int64   `json:"resultsNDJSON"`
	ResultsBinary int64   `json:"resultsBinary"`
	WireFrames    int64   `json:"wireFrames"`
	WireBytes     int64   `json:"wireBytes"`
	WireCompBytes int64   `json:"wireCompressedBytes"`
	// Deprecated: BatchedQueries is always 0 (arrival batching was
	// removed); it stays because benchmark/metrics.go reads it.
	BatchedQueries int64 `json:"batchedQueries"`
	QueueWatermark int   `json:"queueWatermark"`
	Relations      int   `json:"relations"`
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		methodNotAllowed(w, http.MethodGet)
		return
	}
	writeJSON(w, http.StatusOK, s.Status())
}

// Status snapshots the full /v1/status document (also used by
// joinserve for its shutdown summary).
func (s *Server) Status() Status {
	rt := s.cfg.Runtime
	s.relMu.RLock()
	nrels := len(s.rels)
	s.relMu.RUnlock()
	return Status{
		Workers:              rt.Workers(),
		MaxConcurrentQueries: rt.MaxConcurrentQueries(),
		ActiveQueries:        rt.ActiveQueries(),
		QueuedQueries:        rt.QueuedQueries(),
		Sched:                rt.SchedStats(),
		MemPool:              rt.MemPoolStats(),
		Server: ServerStatus{
			UptimeSeconds:  time.Since(s.start).Seconds(),
			Draining:       s.draining.Load(),
			InflightNow:    s.active.Load(),
			Accepted:       s.accepted.Load(),
			Succeeded:      s.succeeded.Load(),
			Failed:         s.failed.Load(),
			Rejected429:    s.rejected.Load(),
			RejectedDrain:  s.drained.Load(),
			RowsStreamed:   s.rows.Load(),
			ResultsNDJSON:  s.resultsNDJSON.Load(),
			ResultsBinary:  s.resultsBinary.Load(),
			WireFrames:     s.wireFrames.Load(),
			WireBytes:      s.wireBytes.Load(),
			WireCompBytes:  s.wireCompBytes.Load(),
			QueueWatermark: s.cfg.QueueWatermark,
			Relations:      nrels,
		},
	}
}

// writeJSON renders v as a one-shot JSON response.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.Encode(v) //nolint:errcheck // client gone: nothing to do
}

// jsonError renders {"error": msg}.
func jsonError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]string{"error": msg})
}

// methodNotAllowed answers 405 with the Allow header RFC 9110 requires
// of it, naming the one method the endpoint serves.
func methodNotAllowed(w http.ResponseWriter, allow string) {
	w.Header().Set("Allow", allow)
	jsonError(w, http.StatusMethodNotAllowed, "use "+allow)
}

// sortedNames returns the registered relation names (for error
// messages that list what exists).
func (s *Server) sortedNames() []string {
	s.relMu.RLock()
	defer s.relMu.RUnlock()
	out := append([]string(nil), s.order...)
	sort.Strings(out)
	return out
}
