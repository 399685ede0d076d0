package radixdecluster

// Public observability surface: per-query execution traces
// (JoinQuery.Trace → Result.Trace, exported as Chrome trace-event
// JSON for Perfetto). The runtime's Prometheus-style metric series
// are rendered by Runtime.WritePrometheus (runtime.go).

import (
	"io"

	"radixdecluster/internal/obs"
)

// Trace is one query's recorded span events: per-phase spans (with
// queue waits and morsel counts), per-morsel worker spans (with steal
// distances), and an admission span when the query waited for
// admission control. Obtain one by setting JoinQuery.Trace; render it
// with WriteJSON or merge several queries' traces into one timeline
// with WriteTraces. Tracing never changes result bytes.
type Trace struct {
	t *obs.Trace
}

// Label returns the trace's query label (strategy and relation names).
func (t *Trace) Label() string { return t.t.Label() }

// Spans returns the number of recorded events.
func (t *Trace) Spans() int { return t.t.Len() }

// WriteJSON renders the trace as a Chrome trace-event JSON document,
// loadable in Perfetto (ui.perfetto.dev) or chrome://tracing.
func (t *Trace) WriteJSON(w io.Writer) error { return obs.WriteChrome(w, t.t) }

// WriteTraces merges several queries' traces into one Chrome
// trace-event JSON document: each trace renders as its own process
// track (titled with its label), so concurrent queries line up on one
// wall-clock timeline.
func WriteTraces(w io.Writer, traces ...*Trace) error {
	ts := make([]*obs.Trace, 0, len(traces))
	for _, t := range traces {
		if t != nil {
			ts = append(ts, t.t)
		}
	}
	return obs.WriteChrome(w, ts...)
}
