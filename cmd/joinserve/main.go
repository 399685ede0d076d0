// Command joinserve runs the project-join engine as a long-lived
// query service: one process-wide runtime (shared worker pool, fair
// morsel scheduling, admission control, arena-pooled execution
// memory) behind an HTTP JSON API over named synthetic relations.
//
// Endpoints, all on one listener:
//
//	POST /v1/query      execute a project-join; streamed result as
//	                    NDJSON, or as the binary columnar frame format
//	                    (internal/wire) when the client sends
//	                    Accept: application/x-radix-columnar
//	GET  /v1/relations  the registered relations
//	GET  /v1/status     queue depth, scheduler and arena counters
//	GET  /metrics       Prometheus exposition: runtime + server series
//	GET  /debug/pprof/  the usual Go profiles
//
// The service dispatches every query as it arrives, answers 429 +
// Retry-After once the runtime's admission queue is twice the
// admission bound deep, and drains on SIGTERM/SIGINT: in-flight
// queries complete, new ones get 503, then the process exits 0. See
// docs/OPERATIONS.md for the full knob and metrics reference, and
// cmd/joinload for a load generator that drives this daemon.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	rd "radixdecluster"

	"radixdecluster/internal/server"
	"radixdecluster/internal/workload"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8080", "listen address (\":0\" picks a free port, printed on startup)")
	n := flag.Int("n", 1<<20, "tuples per generated relation")
	pi := flag.Int("pi", 2, "payload columns per relation (a1..a{pi})")
	hitRate := flag.Float64("hitrate", 1, "join hit rate h (result ≈ h*N)")
	pairs := flag.Int("pairs", 1, "relation pairs to register (larger0/smaller0, larger1/smaller1, ...)")
	seed := flag.Uint64("seed", 1, "workload seed")

	workers := flag.Int("workers", 0, "runtime worker pool size (0 = one per schedulable core)")
	admit := flag.Int("admit", 0, "admission bound: concurrent parallel queries (0 = max(2, workers))")
	memBudget := flag.Int64("membudget", 0, "cap idle recycled arena bytes and add a memory admission ceiling (0 = default retention, no ceiling)")
	pprofLabels := flag.Bool("pproflabels", false, "label morsel goroutines with (query, phase, worker) for CPU profiles")

	drainTimeout := flag.Duration("draintimeout", 30*time.Second, "max wait for in-flight queries on shutdown")
	flag.Parse()

	rt := rd.NewRuntime(rd.RuntimeConfig{
		Workers: *workers, MaxConcurrentQueries: *admit,
		MemoryBudget: *memBudget, PprofLabels: *pprofLabels,
		Metrics: true, // rendered on this daemon's own /metrics
	})
	defer rt.Close()

	srv, err := server.New(server.Config{Runtime: rt})
	if err != nil {
		fail(err)
	}

	// Register -pairs independent larger/smaller pairs, so load
	// generators can spread over distinct base data. Every relation is
	// built WithCompression, so compression=on is always available: a
	// u/u DSM post-projection query adds encodings of its image-order
	// columns to the relation's join image (joinImageBytes).
	for p := 0; p < *pairs; p++ {
		pr, err := workload.GenPair(workload.Params{
			N: *n, Omega: *pi + 1, HitRate: *hitRate,
			SelLarger: 1, SelSmaller: 1, Seed: *seed + uint64(p),
		})
		if err != nil {
			fail(err)
		}
		for _, side := range []struct {
			name string
			wr   *workload.Relation
		}{{fmt.Sprintf("larger%d", p), pr.Larger}, {fmt.Sprintf("smaller%d", p), pr.Smaller}} {
			cols := []rd.Column{{Name: "key", Values: side.wr.Key()}}
			for j := 1; j <= *pi; j++ {
				cols = append(cols, rd.Column{Name: fmt.Sprintf("a%d", j), Values: side.wr.PayloadCol(j)})
			}
			rel, err := rd.NewRelationOpts(side.name, cols, rd.WithCompression())
			if err != nil {
				fail(err)
			}
			if err := srv.Register(rel); err != nil {
				fail(err)
			}
		}
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fail(err)
	}
	fmt.Printf("joinserve: listening on http://%s\n", ln.Addr())
	fmt.Printf("joinserve: %d relation pairs of N=%d pi=%d\n", *pairs, *n, *pi)
	fmt.Printf("joinserve: hierarchy: %v\n", rt.Hier())
	fmt.Printf("joinserve: runtime %d workers, admission bound %d, queue watermark %d\n",
		rt.Workers(), rt.MaxConcurrentQueries(), srv.Status().Server.QueueWatermark)

	httpSrv := &http.Server{Handler: srv.Handler()}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGTERM, syscall.SIGINT)
	select {
	case sig := <-sigCh:
		fmt.Printf("joinserve: %v: draining (in-flight queries complete, new queries get 503)\n", sig)
	case err := <-errCh:
		fail(err)
	}

	// Drain order: stop accepting (flag first, so every new arrival
	// sees it), let the listener close and in-flight responses finish,
	// then wait out any stragglers explicitly.
	srv.BeginDrain()
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(os.Stderr, "joinserve: shutdown: %v\n", err)
	}
	if err := srv.Drain(ctx); err != nil {
		fail(err)
	}
	st := srv.Status()
	fmt.Printf("joinserve: drained after %.1fs: %d accepted, %d ok, %d failed, %d rejected (429), %d rows streamed\n",
		st.Server.UptimeSeconds, st.Server.Accepted, st.Server.Succeeded, st.Server.Failed,
		st.Server.Rejected429, st.Server.RowsStreamed)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
