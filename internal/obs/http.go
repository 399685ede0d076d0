package obs

// HTTP exposure: the metrics endpoint plus Go's pprof handlers on one
// private mux — the seed of the query-service daemon's front door
// (cmd/joinserve mounts this same mux on its listener). Nothing here
// touches the global http.DefaultServeMux, so embedding programs keep
// their own routing.

import (
	"io"
	"net/http"
	"net/http/pprof"
)

// Exposition is anything that can render itself in the Prometheus
// text exposition format. *Registry implements it; so does the public
// Runtime (delegating to its registry), which is how the query
// service daemon concatenates runtime and server-level series on one
// /metrics endpoint without a second registry plumbing path.
type Exposition interface {
	WritePrometheus(w io.Writer)
}

// NewMux returns the observability mux: /metrics rendering every
// exposition in order (one concatenated document — callers must keep
// family names disjoint across expositions), /debug/pprof/* the
// standard Go profiling handlers (profile, heap, goroutine, trace,
// ...). Daemons mount it on their own listener.
func NewMux(exps ...Exposition) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		for _, e := range exps {
			if e != nil {
				e.WritePrometheus(w)
			}
		}
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
