// Command joinrun generates a synthetic relation pair and executes
// the paper's project-join query
//
//	SELECT larger.a1..aY, smaller.b1..bZ
//	FROM larger, smaller WHERE larger.key = smaller.key
//
// once through the public API (radixdecluster.ProjectJoin) with a
// chosen strategy, printing result cardinality, the planner's choices
// (Result.Plan) and the per-phase timing breakdown (Result.Timing).
//
// Every run builds one runtime (one worker set, fair morsel
// scheduling, admission control) and, with -parallel != 0, runs the
// query on it: a lone query is a runtime serving one query.
// -parallel 0 keeps the query on the serial paper engine (no lease is
// taken).
//
// -strategy takes the canonical strategy names (auto,
// DSM-post-decluster, DSM-pre, NSM-pre-hash, NSM-pre-phash,
// NSM-post-decluster, NSM-post-jive); -lm / -sm pin the per-side
// projection methods of DSM post-projection.
//
// The phases line carries the query's scheduler counters (local hits,
// stolen morsels, local-hit rate) and its execution-arena accounting
// (bytes leased, the recycled share, the high-water transient
// footprint); every run also prints the runtime-wide arena counters.
//
// -compress off|auto|on is JoinQuery.Compression: on runs a runtime u/u
// DSM post-projection (the default strategy with -parallel != 0) over
// block-compressed encodings of the relations' join images, each fetch
// decoding a partition where it gathers from it — results are
// byte-identical to raw runs — and prints the decode-time share of the
// query at the end; every other plan, and auto, runs raw, like off.
//
// -traceout FILE records the query's execution as span events and
// writes them as Chrome trace-event JSON, loadable in Perfetto
// (ui.perfetto.dev).
//
// The exit code says whether the query ran; what the counters must
// read is asserted by the packages' tests, not from here.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	rd "radixdecluster"

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
	parallel := flag.Int("parallel", 0, "nominal workers for the query on the morsel-driven executor (all strategies): 0 = serial paper mode, -1 = planner decides per strategy")
	traceOut := flag.String("traceout", "", "write the query's execution trace as Chrome trace-event JSON to this file (open in Perfetto)")
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
	larger, err := method("lm", *lm, "usc")
	if err != nil {
		fail(err)
	}
	smaller, err := method("sm", *sm, "ud")
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

	proj := make([]string, *pi)
	for j := range proj {
		proj[j] = fmt.Sprintf("a%d", j+1)
	}
	q := rd.JoinQuery{
		LargerKey: "key", SmallerKey: "key", LargerProject: proj, SmallerProject: proj,
		Strategy: st, LargerMethod: larger, SmallerMethod: smaller,
		Compression: comp, Parallelism: *parallel, Trace: *traceOut != "",
	}
	if q.Larger, err = relation("larger", pr.Larger, proj); err != nil {
		fail(err)
	}
	if q.Smaller, err = relation("smaller", pr.Smaller, proj); err != nil {
		fail(err)
	}

	rt := rd.NewRuntime(rd.RuntimeConfig{})
	defer rt.Close()
	q.Runtime = rt
	fmt.Printf("hierarchy: %v\n", rt.Hier())
	fmt.Printf("runtime: %d workers, admission bound %d\n",
		rt.Workers(), rt.MaxConcurrentQueries())

	start := time.Now()
	res, err := rd.ProjectJoin(q)
	elapsed := time.Since(start)
	if err != nil {
		fail(err)
	}
	tm := res.Timing
	fmt.Printf("query: strategy=%s result=%d tuples in %v (%.0f tuples/s, workers=%d queue=%v)\n",
		st, res.N, elapsed.Round(time.Millisecond), float64(res.N)/elapsed.Seconds(),
		res.Workers, tm.Queue.Round(time.Millisecond))
	fmt.Printf("plan: %s\n", res.Plan)
	fmt.Printf("phases: %s\n", tm)
	if comp != rd.CompressionOff {
		fmt.Printf("compressed: cols=%d read=%dB saved=%dB decode=%v (%.1f%% of the query)\n",
			tm.CompressedCols, tm.CompressedBytes, tm.CompressedSavedBytes,
			tm.DecodeTime.Round(time.Microsecond), 100*float64(tm.DecodeTime)/float64(elapsed))
	}
	if *traceOut != "" {
		writeTrace(*traceOut, res.Trace)
	}
	// Only the cardinality, plan and timing are printed: the result
	// columns go back to the arena before its counters are.
	res.Release()
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

// method parses the value of the -name flag: empty (the planner
// decides) or exactly one of the side's method letters.
func method(name, s, letters string) (rd.ProjMethod, error) {
	if s == "" {
		return rd.AutoMethod, nil
	}
	if len(s) != 1 || !strings.Contains(letters, s) {
		return 0, fmt.Errorf("-%s %q: want one of the letters %q, or empty for the planner's choice", name, s, letters)
	}
	return rd.ProjMethod(s[0]), nil
}

// writeTrace renders the query's trace as Chrome trace-event JSON.
func writeTrace(path string, t *rd.Trace) {
	f, err := os.Create(path)
	if err != nil {
		fail(err)
	}
	if err := t.WriteJSON(f); err != nil {
		f.Close()
		fail(err)
	}
	if err := f.Close(); err != nil {
		fail(err)
	}
	fmt.Printf("trace: %d span events -> %s (open in ui.perfetto.dev)\n", t.Spans(), path)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
