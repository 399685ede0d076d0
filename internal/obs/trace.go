// Package obs is the runtime observability layer: per-query phase
// tracing exportable as Chrome trace-event JSON (trace.go), a small
// Prometheus-style metrics registry with text exposition (metrics.go),
// and an HTTP front door serving /metrics plus /debug/pprof
// (http.go). It is a leaf package — the executor and the public API
// feed it, nothing in it knows about queries or morsels — so every
// layer of the system can depend on it without cycles.
//
// The design constraint throughout is the paper's §4.1 discipline:
// measurement must not perturb the thing measured. Tracing is opt-in
// per query (a nil *Trace costs one pointer compare on the paths that
// would emit), and the metrics registry is pull-based — almost every
// series is a function over counters the runtime already maintains as
// cheap atomics, evaluated only at scrape time.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"
)

// Event is one trace event in the Chrome trace-event model: a
// complete span (phase type "X") on a track identified by TID, stamped
// with wall-clock nanoseconds.
type Event struct {
	// Name is the event label (a phase name, "morsel", "admission").
	Name string
	// Cat is the category (phase kind, "sched", "scan", ...).
	Cat string
	// TS is the start wall-clock in nanoseconds (UnixNano); Dur the
	// span length in nanoseconds.
	TS  int64
	Dur int64
	// TID is the track: a runtime worker id, or a synthetic track id
	// for pipeline-level spans.
	TID int
	// Args are the event's structured payload (morsel counts, queue
	// waits in nanoseconds, steal distances, ...). Integer-valued by
	// design: everything the scheduler measures is a count or a
	// duration.
	Args map[string]int64
}

// Trace is one query's span buffer. All methods are safe for
// concurrent use — runtime workers append morsel spans while the
// query goroutine appends phase spans. A nil *Trace is a valid
// "tracing off" tracer: every method no-ops, so emit sites pay one
// pointer compare when tracing is disabled.
type Trace struct {
	label string

	mu     sync.Mutex
	events []Event
}

// NewTrace creates an empty trace buffer labeled with the query's
// identity (strategy name, relation names — whatever the caller wants
// Perfetto to title the process track with).
func NewTrace(label string) *Trace {
	return &Trace{label: label}
}

// Label returns the trace's query label ("" on nil).
func (t *Trace) Label() string {
	if t == nil {
		return ""
	}
	return t.label
}

// Span appends a complete span. No-op on a nil trace.
func (t *Trace) Span(name, cat string, tid int, start time.Time, d time.Duration, args map[string]int64) {
	if t == nil {
		return
	}
	t.append(Event{Name: name, Cat: cat, TS: start.UnixNano(), Dur: int64(d), TID: tid, Args: args})
}

func (t *Trace) append(e Event) {
	t.mu.Lock()
	t.events = append(t.events, e)
	t.mu.Unlock()
}

// Len returns the number of recorded events (0 on nil).
func (t *Trace) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.events)
}

// Events returns a copy of the recorded events in append order.
func (t *Trace) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Event, len(t.events))
	copy(out, t.events)
	return out
}

// WriteChrome renders one or more traces as a single Chrome
// trace-event JSON document ({"traceEvents": [...]}), loadable by
// Perfetto (ui.perfetto.dev) and chrome://tracing. Each trace becomes
// one process: pid = its index, titled with its label via a
// process_name metadata event; events keep their track ids as tids.
// Timestamps convert to the format's microseconds, fractional digits
// carrying the nanosecond precision. Event order within a trace is
// append order, so a serially produced trace marshals
// deterministically.
func WriteChrome(w io.Writer, traces ...*Trace) error {
	raw := make([]json.RawMessage, 0, 16)
	emit := func(v any) error {
		b, err := json.Marshal(v)
		if err != nil {
			return err
		}
		raw = append(raw, b)
		return nil
	}
	for pid, t := range traces {
		if t == nil {
			continue
		}
		label := t.Label()
		if label == "" {
			label = fmt.Sprintf("query %d", pid)
		}
		if err := emit(map[string]any{
			"name": "process_name", "ph": "M", "pid": pid, "tid": 0,
			"args": map[string]string{"name": label},
		}); err != nil {
			return err
		}
		for _, e := range t.Events() {
			ce := map[string]any{
				"name": e.Name, "ph": "X", "pid": pid, "tid": e.TID,
				"ts": float64(e.TS) / 1e3, "dur": float64(e.Dur) / 1e3,
			}
			if e.Cat != "" {
				ce["cat"] = e.Cat
			}
			if len(e.Args) > 0 {
				ce["args"] = e.Args
			}
			if err := emit(ce); err != nil {
				return err
			}
		}
	}
	return json.NewEncoder(w).Encode(struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}{TraceEvents: raw})
}
