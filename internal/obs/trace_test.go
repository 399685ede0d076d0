package obs

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// fixedTrace builds a trace from fixed timestamps, so its Chrome
// rendering is fully deterministic.
func fixedTrace() *Trace {
	t0 := time.Unix(1000, 0)
	tr := NewTrace("DSM-post-decluster L⋈S")
	tr.Span("partitioned-hash-join", "join", 1000, t0, 250*time.Millisecond,
		map[string]int64{"queue_wait_ns": 1500, "morsels": 32})
	tr.Span("morsel", "join", 2, t0.Add(time.Millisecond), 750*time.Microsecond,
		map[string]int64{"task": 7, "dist": -1})
	return tr
}

// TestWriteChromeGolden pins the exact Chrome trace-event rendering
// against a committed golden file: schema drift (field renames, ts
// unit changes) breaks Perfetto loading silently, so it must break
// this test loudly instead. Regenerate with -update.
func TestWriteChromeGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChrome(&buf, fixedTrace(), nil, fixedTrace()); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "chrome_trace.golden.json")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with UPDATE_GOLDEN=1 to create)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("rendering drifted from golden file:\ngot:  %s\nwant: %s", buf.Bytes(), want)
	}
}

// TestWriteChromeDeterministic: two renderings of the same trace are
// byte-identical (map-key ordering must not leak into the output).
func TestWriteChromeDeterministic(t *testing.T) {
	tr := fixedTrace()
	var a, b bytes.Buffer
	if err := WriteChrome(&a, tr); err != nil {
		t.Fatal(err)
	}
	if err := WriteChrome(&b, tr); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two renderings of one trace differ")
	}
}

// TestWriteChromeSchema checks the structural contract Perfetto
// needs: a traceEvents array whose spans carry ph/ts/dur/pid/tid and
// whose per-trace metadata names the process.
func TestWriteChromeSchema(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChrome(&buf, fixedTrace()); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) != 3 { // metadata + 2 spans
		t.Fatalf("got %d events, want 3", len(doc.TraceEvents))
	}
	meta := doc.TraceEvents[0]
	if meta["ph"] != "M" || meta["name"] != "process_name" {
		t.Fatalf("first event is not process metadata: %v", meta)
	}
	span := doc.TraceEvents[1]
	if span["ph"] != "X" {
		t.Fatalf("span ph: %v", span["ph"])
	}
	// 250ms span → 250000µs in the format's microsecond unit.
	if span["dur"].(float64) != 250000 {
		t.Fatalf("span dur %v µs, want 250000", span["dur"])
	}
	if span["tid"].(float64) != 1000 {
		t.Fatalf("span tid %v, want 1000", span["tid"])
	}
	if span["ts"].(float64) != 1000*1e6 {
		t.Fatalf("span ts %v µs, want %v", span["ts"], 1000*1e6)
	}
}

// TestNilTrace: every method of a nil trace no-ops — the tracing-off
// fast path the executor relies on.
func TestNilTrace(t *testing.T) {
	var tr *Trace
	tr.Span("x", "y", 0, time.Now(), time.Second, nil)
	if tr.Len() != 0 || tr.Events() != nil || tr.Label() != "" {
		t.Fatal("nil trace must be empty")
	}
	var buf bytes.Buffer
	if err := WriteChrome(&buf, tr); err != nil {
		t.Fatal(err)
	}
}

// TestTraceConcurrentAppend: workers and the query goroutine append
// concurrently (run under -race in CI).
func TestTraceConcurrentAppend(t *testing.T) {
	tr := NewTrace("stress")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				tr.Span("morsel", "join", g, time.Now(), time.Microsecond,
					map[string]int64{"task": int64(i)})
			}
		}(g)
	}
	wg.Wait()
	if tr.Len() != 800 {
		t.Fatalf("recorded %d events, want 800", tr.Len())
	}
}
