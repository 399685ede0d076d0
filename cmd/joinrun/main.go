// Command joinrun generates a synthetic relation pair and executes
// the paper's project-join query
//
//	SELECT larger.a1..aY, smaller.b1..bZ
//	FROM larger, smaller WHERE larger.key = smaller.key
//
// with a chosen strategy, printing result cardinality, the planner's
// choices and the per-phase timing breakdown.
//
// Every run executes on one runtime (one worker set, fair morsel
// scheduling, admission control — adaptive by default, see -admit):
// -concurrency N fires N copies of the query at once against it and
// prints per-query and aggregate throughput; the default N = 1 is the
// degenerate case, a runtime serving one query, and takes every flag
// below. -parallel 0 keeps the queries on the serial paper engine (no
// lease is taken; with N > 1 it defaults to the planner's choice
// instead). -share enables cooperative scan sharing (same-source scans
// of concurrent queries are served by one circular pass) and reports
// per-query and total shared-scan hits.
//
// Every query's phases line carries its scheduler counters (local
// hits, steals by topology distance, local-hit rate) and its
// execution-arena accounting (bytes leased, the recycled share, the
// high-water transient footprint); -schedstats adds the runtime-wide
// scheduler counters, lifetime and windowed, and every run prints the
// runtime-wide arena counters.
//
// -compress auto|for|delta block-compresses the input columns (auto
// picks the best scheme per column; for/delta pin one) and executes
// the pipelines over the encoded bytes — results are byte-identical to
// raw runs — printing each column's scheme and compression ratio up
// front and the decode-time share of the run at the end.
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
	goruntime "runtime"
	"sync"
	"time"

	"radixdecluster/internal/compress"
	"radixdecluster/internal/costmodel"
	"radixdecluster/internal/exec"
	"radixdecluster/internal/mem"
	"radixdecluster/internal/obs"
	"radixdecluster/internal/strategy"
	"radixdecluster/internal/workload"
)

func main() {
	n := flag.Int("n", 1<<20, "tuples per relation")
	pi := flag.Int("pi", 4, "projection columns per relation")
	hitRate := flag.Float64("hitrate", 1, "join hit rate h (result ≈ h*N)")
	sel := flag.Float64("sel", 1, "selectivity: larger relation is this fraction of its base table")
	strat := flag.String("strategy", "dsm-post", "dsm-post | dsm-pre | nsm-pre-hash | nsm-pre-phash | nsm-post-decluster | nsm-post-jive")
	lm := flag.String("lm", "", "larger-side method for dsm-post: u, s or c (empty = auto)")
	sm := flag.String("sm", "", "smaller-side method for dsm-post: u or d (empty = auto)")
	compressFlag := flag.String("compress", "off", "execution format: off (raw) | auto (block-compress each column with the best scheme) | for | delta (pin the scheme); results are byte-identical either way")
	parallel := flag.Int("parallel", 0, "nominal workers per query on the morsel-driven executor (all strategies): 0 = serial paper mode (planner decides when -concurrency > 1), -1 = planner decides per strategy")
	concurrency := flag.Int("concurrency", 1, "queries to fire at once against the runtime (1 = single query)")
	maxConcurrent := flag.Int("admit", 0, "admission bound of the runtime (0 = adaptive: derived from the calibrated bus-stream budget and the LLC share)")
	share := flag.Bool("share", false, "enable cooperative scan sharing on the runtime (one pass feeds all queries scanning the same source)")
	schedStats := flag.Bool("schedstats", false, "print the runtime-wide affinity-scheduler counters (local hits, steals by distance), lifetime and windowed; each query's own are on its phases line")
	traceOut := flag.String("traceout", "", "write the run's execution trace(s) as Chrome trace-event JSON to this file (open in Perfetto)")
	metricsAddr := flag.String("metricsaddr", "", "serve the runtime's Prometheus metrics and pprof on this address (e.g. :9090 or 127.0.0.1:0) and self-scrape once after the run")
	pprofLabels := flag.Bool("pproflabels", false, "label every morsel's goroutine with (query, phase, worker) for CPU profiles")
	seed := flag.Uint64("seed", 1, "workload seed")
	flag.Parse()

	omega := *pi + 1
	pr, err := workload.GenPair(workload.Params{
		N: *n, Omega: omega, HitRate: *hitRate,
		SelLarger: *sel, SelSmaller: 1, Seed: *seed,
	})
	if err != nil {
		fail(err)
	}
	fmt.Printf("N=%d pi=%d h=%g sel=%g -> expecting %d result tuples\n",
		*n, *pi, *hitRate, *sel, pr.ExpectedMatches)

	// Build the strategy inputs once — every concurrent query shares
	// them (and the workload's memoized projection columns and NSM
	// image behind them).
	sd, err := buildSides(*strat, pr, *pi, *sel)
	if err != nil {
		fail(err)
	}
	encFn, err := encoderFor(*compressFlag)
	if err != nil {
		fail(err)
	}
	if encFn != nil {
		if err := sd.encode(encFn); err != nil {
			fail(err)
		}
		sd.report()
	}

	runOnce := func(cfg strategy.Config) (*strategy.Result, error) {
		if encFn != nil {
			cfg.Compress = strategy.CompressOn
		}
		return runStrategy(*strat, sd, *lm, *sm, cfg)
	}

	// Firing N copies at once exists to exercise the shared executor,
	// so N > 1 without -parallel defaults to the planner.
	par := *parallel
	if par == 0 && *concurrency > 1 {
		par = strategy.AutoParallelism
	}

	admit := *maxConcurrent
	if admit <= 0 {
		admit = costmodel.AdaptiveAdmission(mem.Pentium4(), goruntime.GOMAXPROCS(0))
	}
	rt := exec.NewRuntimeOpts(exec.Options{MaxConcurrent: admit, ShareScans: *share,
		Metrics: *metricsAddr != "", PprofLabels: *pprofLabels})
	defer rt.Close()
	topo := rt.Topology()
	fmt.Printf("runtime: %d workers, admission bound %d, scan sharing %v, topology %s (%d cpus, %d nodes)\n",
		rt.Workers(), rt.MaxConcurrent(), rt.ShareScans(), topo.Source, len(topo.CPUs), topo.Nodes())

	var metricsSrv *obs.Server
	if *metricsAddr != "" {
		srv, err := obs.Serve(*metricsAddr, rt.MetricsRegistry())
		if err != nil {
			fail(err)
		}
		metricsSrv = srv
		defer metricsSrv.Close()
		fmt.Printf("metrics: http://%s/metrics (pprof at /debug/pprof/)\n", srv.Addr())
	}

	type outcome struct {
		res     *strategy.Result
		elapsed time.Duration
		err     error
	}
	outs := make([]outcome, *concurrency)
	var traces []*obs.Trace
	if *traceOut != "" {
		traces = make([]*obs.Trace, *concurrency)
		for i := range traces {
			traces[i] = obs.NewTrace(fmt.Sprintf("query %d (%s)", i, *strat))
		}
	}
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < *concurrency; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cfg := strategy.Config{Hier: mem.Pentium4(), Parallelism: par, Runtime: rt, QueryTag: *strat}
			if traces != nil {
				cfg.Trace = traces[i]
			}
			t0 := time.Now()
			res, err := runOnce(cfg)
			outs[i] = outcome{res: res, elapsed: time.Since(t0), err: err}
			if err == nil {
				// Only the cardinality, plan and phases are printed: the
				// result arrays go back to the arena for the queries still
				// waiting on admission.
				res.Release()
			}
		}(i)
	}
	wg.Wait()
	wall := time.Since(start)

	total := 0
	for i, o := range outs {
		if o.err != nil {
			fail(o.err)
		}
		res := o.res
		total += res.N
		fmt.Printf("query %d: strategy=%s result=%d tuples in %v (workers=%d queue=%v sharedscans=%d)\n",
			i, *strat, res.N, o.elapsed.Round(time.Millisecond), res.Workers,
			res.Phases.Queue.Round(time.Millisecond), res.Phases.SharedScanHits)
		fmt.Printf("query %d plan: joinbits=%d largerbits=%d smallerbits=%d window=%d methods=%v/%v workers=%d\n",
			i, res.JoinBits, res.LargerBits, res.SmallerBits, res.Window, res.LargerMethod, res.SmallerMethod, res.Workers)
		fmt.Printf("query %d phases: %s\n", i, res.Phases)
	}
	agg := float64(total) / wall.Seconds()
	fmt.Printf("total: %d queries on the runtime in %v (%.0f tuples/s aggregate, %d shared-scan hits)\n",
		*concurrency, wall.Round(time.Millisecond), agg, rt.SharedScanHits())
	if encFn != nil {
		var comp exec.CompStats
		for _, o := range outs {
			comp = comp.Add(o.res.Phases.Comp)
		}
		fmt.Printf("compressed: %s\n", compLine(comp, wall))
	}
	if *schedStats {
		sched := rt.SchedStats()
		fmt.Printf("runtime sched: %v (affinity misses %d)\n", sched, sched.AffinityMisses())
		fmt.Printf("runtime sched rates: lifetime warm=%.2f local=%.2f | window %v\n",
			sched.WarmHitRate(), sched.LocalHitRate(), rt.SchedStatsWindow())
	}
	if *traceOut != "" {
		writeTraces(*traceOut, traces...)
	}
	if metricsSrv != nil {
		scrapeMetrics(metricsSrv.Addr())
	}
	fmt.Printf("memory: %v\n", rt.MemStats())
}

// writeTraces renders the traces as one Chrome trace-event JSON file.
func writeTraces(path string, traces ...*obs.Trace) {
	spans := 0
	for _, t := range traces {
		spans += t.Len()
	}
	f, err := os.Create(path)
	if err != nil {
		fail(err)
	}
	if err := obs.WriteChrome(f, traces...); err != nil {
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

// sides holds the query's strategy inputs, built once and shared by
// every concurrent run.
type sides struct {
	dsm    bool
	l, s   strategy.DSMSide
	nl, ns strategy.NSMSide
}

func buildSides(strat string, pr *workload.Pair, pi int, sel float64) (*sides, error) {
	switch strat {
	case "dsm-post", "dsm-pre":
		return &sides{dsm: true,
			l: strategy.DSMSide{OIDs: pr.Larger.SelOIDs, Keys: pr.Larger.SelKeys,
				Cols: pr.Larger.ProjCols(pi), BaseN: pr.Larger.BaseN},
			s: strategy.DSMSide{OIDs: pr.Smaller.SelOIDs, Keys: pr.Smaller.SelKeys,
				Cols: pr.Smaller.ProjCols(pi), BaseN: pr.Smaller.BaseN},
		}, nil
	case "nsm-pre-hash", "nsm-pre-phash", "nsm-post-decluster", "nsm-post-jive":
		if sel != 1 {
			return nil, fmt.Errorf("NSM strategies join whole base tables; use -sel 1")
		}
		cols := make([]int, pi)
		for i := range cols {
			cols[i] = i + 1
		}
		return &sides{
			nl: strategy.NSMSide{Rel: pr.Larger.NSM(), KeyCol: 0, ProjCols: cols},
			ns: strategy.NSMSide{Rel: pr.Smaller.NSM(), KeyCol: 0, ProjCols: cols},
		}, nil
	}
	return nil, fmt.Errorf("unknown strategy %q", strat)
}

// encode builds the sides' block-compressed images with the chosen
// encoder (columns it cannot shrink stay raw-only).
func (sd *sides) encode(enc func([]int32) (*compress.Encoded, error)) error {
	if sd.dsm {
		if err := sd.l.Encode(enc); err != nil {
			return err
		}
		return sd.s.Encode(enc)
	}
	if err := sd.nl.Encode(enc); err != nil {
		return err
	}
	return sd.ns.Encode(enc)
}

// report prints each column's scheme and compression ratio.
func (sd *sides) report() {
	if sd.dsm {
		reportDSM("larger", sd.l)
		reportDSM("smaller", sd.s)
		return
	}
	reportEnc("larger.records", sd.nl.Enc)
	reportEnc("smaller.records", sd.ns.Enc)
}

func reportDSM(name string, s strategy.DSMSide) {
	reportEnc(name+".key", s.KeysEnc)
	for i, e := range s.ColsEnc {
		reportEnc(fmt.Sprintf("%s.a%d", name, i+1), e)
	}
}

func reportEnc(name string, e *compress.Encoded) {
	if e == nil {
		fmt.Printf("compress: %-16s raw (incompressible)\n", name)
		return
	}
	fmt.Printf("compress: %-16s scheme=%s ratio=%.3f (%d -> %d bytes)\n",
		name, e.Scheme(), e.Ratio(), e.RawBytes(), e.CompressedBytes())
}

// encoderFor maps the -compress flag to a column encoder (nil = raw
// execution).
func encoderFor(mode string) (func([]int32) (*compress.Encoded, error), error) {
	switch mode {
	case "off":
		return nil, nil
	case "auto":
		return compress.EncodeBest, nil
	case "for":
		return func(v []int32) (*compress.Encoded, error) { return compress.EncodeColumn(v, compress.FOR) }, nil
	case "delta":
		return func(v []int32) (*compress.Encoded, error) { return compress.EncodeColumn(v, compress.DeltaFOR) }, nil
	}
	return nil, fmt.Errorf("unknown -compress mode %q (want off, auto, for or delta)", mode)
}

// compLine renders a run's compressed-execution counters with the
// decode share of its wall time.
func compLine(c exec.CompStats, total time.Duration) string {
	share := 0.0
	if total > 0 {
		share = 100 * float64(c.DecodeNanos) / float64(total)
	}
	return fmt.Sprintf("cols=%d read=%dB saved=%dB decode=%v (%.1f%% of run)",
		c.Cols, c.CompressedBytes, c.SavedBytes,
		time.Duration(c.DecodeNanos).Round(time.Microsecond), share)
}

// runStrategy executes one query with the named strategy on cfg's
// engine (serial, or a lease on cfg.Runtime).
func runStrategy(strat string, sd *sides, lm, sm string, cfg strategy.Config) (*strategy.Result, error) {
	if sd.dsm {
		if strat == "dsm-pre" {
			return strategy.DSMPre(sd.l, sd.s, cfg)
		}
		return strategy.DSMPost(sd.l, sd.s, method(lm), method(sm), cfg)
	}
	switch strat {
	case "nsm-pre-hash":
		return strategy.NSMPre(sd.nl, sd.ns, false, cfg)
	case "nsm-pre-phash":
		return strategy.NSMPre(sd.nl, sd.ns, true, cfg)
	case "nsm-post-decluster":
		return strategy.NSMPostDecluster(sd.nl, sd.ns, cfg)
	default:
		return strategy.NSMPostJive(sd.nl, sd.ns, 0, cfg)
	}
}

func method(s string) strategy.ProjMethod {
	if s == "" {
		return strategy.Auto
	}
	return strategy.ProjMethod(s[0])
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
