package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
)

// workloadSpec is one workload's shape. The names, and why each
// workload exists, are declared in BENCHMARK.json; README.md has the
// predictions of which metric each layer should move on which.
type workloadSpec struct {
	name string
	// lib runs the library child (paper mode) instead of joinserve.
	lib bool
	// Data shape: tuples per relation, payload columns per side,
	// relation pairs registered.
	n, pi, pairs int
	// Query shape.
	compression string // "" or "on"
	binary      bool   // Accept: application/x-radix-columnar
	omitRows    bool   // header and footer only
	limit       int    // rows streamed when > 0; all rows otherwise
	// openRate > 0 makes the workload an open loop at that many
	// queries per second; otherwise clients() callers loop closed.
	openRate float64
	// limitMs is the workload's latency limit: an attempted query
	// that fails or takes longer misses it.
	limitMs float64
	// ungated workloads are run and reported by the harness like any
	// other but are not declared in BENCHMARK.json, so nothing is
	// judged by them: README.md says why.
	ungated bool
}

var workloads = []*workloadSpec{
	{name: "paper_serial", lib: true, n: 1 << 20, pi: 4, pairs: 1, omitRows: true, limitMs: 300},
	{name: "svc_engine_raw", n: 1 << 20, pi: 2, pairs: 2, omitRows: true, limitMs: 400},
	{name: "svc_engine_compressed", n: 1 << 20, pi: 2, pairs: 2, omitRows: true, compression: "on", limitMs: 400},
	{name: "svc_stream_binary", n: 1 << 20, pi: 2, pairs: 2, binary: true, limitMs: 600},
	{name: "svc_stream_ndjson", n: 1 << 20, pi: 2, pairs: 2, limitMs: 1000, ungated: true},
	{name: "svc_open_small", n: 1 << 16, pi: 2, pairs: 1, limit: 1000, openRate: 80, limitMs: 50, ungated: true},
}

func findWorkload(name string) *workloadSpec {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// rowsStreamed is how many rows one response carries.
func (w *workloadSpec) rowsStreamed(resultN int) int {
	switch {
	case w.omitRows:
		return 0
	case w.limit > 0 && w.limit < resultN:
		return w.limit
	}
	return resultN
}

// generatorThreads is the load generator's size: one thread per
// processor up to four.
func generatorThreads() int { return min(runtime.NumCPU(), 4) }

// clients is C, the closed-loop caller count: as many as the generator
// has threads, one for the library child.
func (w *workloadSpec) clients() int {
	if w.lib {
		return 1
	}
	return generatorThreads()
}

// openSenders is how many connections an open loop keeps. Independent
// users do not queue behind each other, so there are enough senders
// that one is always idle when a query falls due: with only C of
// them the wait for a free sender would dominate lateness.
func (w *workloadSpec) openSenders() int { return 8 * w.clients() }

// rateSteps are the fixed rates of the open-loop capacity probe.
var rateSteps = []float64{40, 80, 160, 320}

// metricDecl and benchmarkDecl mirror BENCHMARK.json, which is the one
// declaration of metric names, units, directions and bounds.
type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

type benchmarkDecl struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDecl `json:"end_to_end"`
	PerLayer []metricDecl `json:"per_layer"`
}

func loadDecl(root string) (*benchmarkDecl, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var d benchmarkDecl
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &d, nil
}

// metricsFor returns the metrics one run reports: end-to-end with
// tracing off, per-layer with it on.
func (d *benchmarkDecl) metricsFor(trace bool) []metricDecl {
	if trace {
		return d.PerLayer
	}
	return d.EndToEnd
}
