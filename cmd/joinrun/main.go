// Command joinrun generates a synthetic relation pair and executes
// the paper's project-join query
//
//	SELECT larger.a1..aY, smaller.b1..bZ
//	FROM larger, smaller WHERE larger.key = smaller.key
//
// through the public API (radixdecluster.ProjectJoin) with a chosen
// strategy, printing result cardinality, the planner's choices
// (Result.Plan) and the per-phase timing breakdown (Result.Timing).
//
// Every run builds one runtime (one worker set, fair morsel
// scheduling, admission control — see -admit):
// -concurrency N fires N copies of the query at once against it and
// prints per-query and aggregate throughput; the default N = 1 is the
// degenerate case, a runtime serving one query, and takes every flag
// below. -parallel 0 keeps the queries on the serial paper engine (no
// lease is taken; with N > 1 it defaults to the planner's choice
// instead).
//
// -strategy takes the canonical strategy names (auto,
// DSM-post-decluster, DSM-pre, NSM-pre-hash, NSM-pre-phash,
// NSM-post-decluster, NSM-post-jive); -lm / -sm pin the per-side
// projection methods of DSM post-projection.
//
// Every query's phases line carries its scheduler counters (local
// hits, stolen morsels, local-hit rate) and its
// execution-arena accounting (bytes leased, the recycled share, the
// high-water transient footprint); -schedstats adds the runtime-wide
// scheduler counters, and every run prints the runtime-wide arena
// counters.
//
// -compress off|auto|on is JoinQuery.Compression: on runs a runtime u/u
// DSM post-projection (the default strategy with -parallel != 0) over
// block-compressed encodings of the relations' join images, each fetch
// decoding a partition where it gathers from it — results are
// byte-identical to raw runs — and prints the decode-time share of the
// run at the end; every other plan, and auto, runs raw, like off.
//
// Observability flags: -traceout FILE records every query's execution
// as span events and writes one merged Chrome trace-event JSON
// document, loadable in Perfetto (ui.perfetto.dev); -metricsaddr ADDR
// serves the runtime's Prometheus-style metrics on ADDR (/metrics,
// plus /debug/pprof) for the duration of the run and self-scrapes
// them once at the end; -pproflabels labels every morsel's goroutine
// with (query, phase, worker) for CPU profiles.
//
// The exit code says whether every query ran; what the counters must
// read is asserted by the packages' tests, not from here.
package main

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sync"
	"time"

	rd "radixdecluster"

	"radixdecluster/internal/obs"
	"radixdecluster/internal/workload"
)

func main() {
	n := flag.Int("n", 1<<20, "tuples per relation")
	pi := flag.Int("pi", 4, "projection columns per relation")
	hitRate := flag.Float64("hitrate", 1, "join hit rate h (result ≈ h*N)")
	strat := flag.String("strategy", rd.DSMPostDecluster.String(), "auto | DSM-post-decluster | DSM-pre | NSM-pre-hash | NSM-pre-phash | NSM-post-decluster | NSM-post-jive")
	lm := flag.String("lm", "", "larger-side method for DSM-post-decluster: u, s or c (empty = auto)")
	sm := flag.String("sm", "", "smaller-side method for DSM-post-decluster: u or d (empty = auto)")
	compressFlag := flag.String("compress", "off", "execution format: off (raw) | auto (resolves to raw) | on (a runtime u/u DSM post-projection fetches from block-compressed join images, decoding per partition; every other plan runs raw); results are byte-identical either way")
	parallel := flag.Int("parallel", 0, "nominal workers per query on the morsel-driven executor (all strategies): 0 = serial paper mode (planner decides when -concurrency > 1), -1 = planner decides per strategy")
	concurrency := flag.Int("concurrency", 1, "queries to fire at once against the runtime (1 = single query)")
	maxConcurrent := flag.Int("admit", 0, "admission bound of the runtime (0 = max(2, workers))")
	schedStats := flag.Bool("schedstats", false, "print the runtime-wide scheduler counters (local hits, stolen morsels, local-hit rate); each query's own are on its phases line")
	traceOut := flag.String("traceout", "", "write the run's execution trace(s) as Chrome trace-event JSON to this file (open in Perfetto)")
	metricsAddr := flag.String("metricsaddr", "", "serve the runtime's Prometheus metrics and pprof on this address (e.g. :9090 or 127.0.0.1:0) and self-scrape once after the run")
	pprofLabels := flag.Bool("pproflabels", false, "label every morsel's goroutine with (query, phase, worker) for CPU profiles")
	seed := flag.Uint64("seed", 1, "workload seed")
	flag.Parse()

	st, err := rd.ParseStrategy(*strat)
	if err != nil {
		fail(err)
	}
	comp, err := parseCompression(*compressFlag)
	if err != nil {
		fail(err)
	}
	pr, err := workload.GenPair(workload.Params{
		N: *n, Omega: *pi + 1, HitRate: *hitRate,
		SelLarger: 1, SelSmaller: 1, Seed: *seed,
	})
	if err != nil {
		fail(err)
	}
	fmt.Printf("N=%d pi=%d h=%g -> expecting %d result tuples\n", *n, *pi, *hitRate, pr.ExpectedMatches)

	// Build the relations once — every concurrent query shares them
	// (and the NSM and join images they build lazily).
	proj := make([]string, *pi)
	for j := range proj {
		proj[j] = fmt.Sprintf("a%d", j+1)
	}
	q := rd.JoinQuery{
		LargerKey: "key", SmallerKey: "key", LargerProject: proj, SmallerProject: proj,
		Strategy: st, LargerMethod: method(*lm), SmallerMethod: method(*sm),
		Compression: comp, Trace: *traceOut != "",
	}
	if q.Larger, err = relation("larger", pr.Larger, proj); err != nil {
		fail(err)
	}
	if q.Smaller, err = relation("smaller", pr.Smaller, proj); err != nil {
		fail(err)
	}

	// Firing N copies at once exists to exercise the shared executor,
	// so N > 1 without -parallel defaults to the planner.
	q.Parallelism = *parallel
	if q.Parallelism == 0 && *concurrency > 1 {
		q.Parallelism = rd.AutoParallelism
	}

	rt := rd.NewRuntime(rd.RuntimeConfig{
		MaxConcurrentQueries: *maxConcurrent,
		Metrics:              *metricsAddr != "",
		PprofLabels:          *pprofLabels,
	})
	defer rt.Close()
	q.Runtime = rt
	fmt.Printf("hierarchy: %v\n", rt.Hier())
	fmt.Printf("runtime: %d workers, admission bound %d\n",
		rt.Workers(), rt.MaxConcurrentQueries())
	var metrics *obs.Server
	if *metricsAddr != "" {
		if metrics, err = obs.Serve(*metricsAddr, rt); err != nil {
			fail(err)
		}
		defer metrics.Close()
		fmt.Printf("metrics: http://%s/metrics (pprof at /debug/pprof/)\n", metrics.Addr())
	}

	type outcome struct {
		res     *rd.Result
		elapsed time.Duration
		err     error
	}
	outs := make([]outcome, *concurrency)
	var wg sync.WaitGroup
	start := time.Now()
	for i := range outs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			t0 := time.Now()
			res, err := rd.ProjectJoin(q)
			outs[i] = outcome{res: res, elapsed: time.Since(t0), err: err}
			if err == nil {
				// Only the cardinality, plan and timing are printed: the
				// result columns go back to the arena for the queries still
				// waiting on admission.
				res.Release()
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)

	total := 0
	var traces []*rd.Trace
	var compCols, compRead, compSaved int64
	var decode time.Duration
	for i, o := range outs {
		if o.err != nil {
			fail(o.err)
		}
		res := o.res
		total += res.N
		traces = append(traces, res.Trace)
		tm := res.Timing
		compCols += tm.CompressedCols
		compRead += tm.CompressedBytes
		compSaved += tm.CompressedSavedBytes
		decode += tm.DecodeTime
		fmt.Printf("query %d: strategy=%s result=%d tuples in %v (workers=%d queue=%v)\n",
			i, st, res.N, o.elapsed.Round(time.Millisecond), res.Workers,
			tm.Queue.Round(time.Millisecond))
		fmt.Printf("query %d plan: %s\n", i, res.Plan)
		fmt.Printf("query %d phases: %s\n", i, tm)
	}
	agg := float64(total) / wall.Seconds()
	fmt.Printf("total: %d queries on the runtime in %v (%.0f tuples/s aggregate)\n",
		*concurrency, wall.Round(time.Millisecond), agg)
	if comp != rd.CompressionOff {
		fmt.Printf("compressed: cols=%d read=%dB saved=%dB decode=%v (%.1f%% of run)\n",
			compCols, compRead, compSaved, decode.Round(time.Microsecond),
			100*float64(decode)/float64(wall))
	}
	if *schedStats {
		fmt.Printf("runtime sched: %v\n", rt.SchedStats())
	}
	if *traceOut != "" {
		writeTraces(*traceOut, traces)
	}
	if metrics != nil {
		scrapeMetrics(metrics.Addr())
	}
	fmt.Printf("memory: %v\n", rt.MemPoolStats())
}

// relation builds one side of the pair: the key column plus the named
// payload columns, built WithCompression so every -compress mode is
// available.
func relation(name string, wr *workload.Relation, proj []string) (*rd.Relation, error) {
	cols := []rd.Column{{Name: "key", Values: wr.Key()}}
	for j, p := range proj {
		cols = append(cols, rd.Column{Name: p, Values: wr.PayloadCol(j + 1)})
	}
	return rd.NewRelationOpts(name, cols, rd.WithCompression())
}

// parseCompression maps the -compress flag onto the names
// Compression.String returns.
func parseCompression(s string) (rd.Compression, error) {
	for _, c := range []rd.Compression{rd.CompressionOff, rd.CompressionAuto, rd.CompressionOn} {
		if c.String() == s {
			return c, nil
		}
	}
	return 0, fmt.Errorf("unknown -compress mode %q (want off, auto or on)", s)
}

func method(s string) rd.ProjMethod {
	if s == "" {
		return rd.AutoMethod
	}
	return rd.ProjMethod(s[0])
}

// writeTraces renders the traces as one Chrome trace-event JSON file.
func writeTraces(path string, traces []*rd.Trace) {
	spans := 0
	for _, t := range traces {
		spans += t.Spans()
	}
	f, err := os.Create(path)
	if err != nil {
		fail(err)
	}
	if err := rd.WriteTraces(f, traces...); err != nil {
		f.Close()
		fail(err)
	}
	if err := f.Close(); err != nil {
		fail(err)
	}
	fmt.Printf("trace: %d span events from %d queries -> %s (open in ui.perfetto.dev)\n",
		spans, len(traces), path)
}

// scrapeMetrics GETs the runtime's own /metrics endpoint once —
// proving the listener serves parseable exposition text.
func scrapeMetrics(addr string) {
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		fail(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		fail(err)
	}
	samples := obs.ParseSamples(string(body))
	fmt.Printf("metrics self-scrape: %d samples (queries_total=%g)\n",
		len(samples), samples["radixdecluster_queries_total"])
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
