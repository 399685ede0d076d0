// Command joinload drives a running joinserve daemon with synthetic
// query traffic and reports what the service delivered: latency
// percentiles, achieved throughput, transfer bandwidth and
// backpressure rejections.
//
// Two load models:
//
//	-concurrency N   closed loop: N clients, each firing its next
//	                 query as soon as the previous one finishes.
//	-rate R          open loop: queries arrive at R per second with
//	                 exponential (Poisson) inter-arrival gaps,
//	                 regardless of how fast the service answers — the
//	                 model that actually exposes queueing collapse.
//	                 Arrivals are scheduled on absolute due times and
//	                 a query's latency counts from its due time, so a
//	                 stall shows the wait it imposes on the arrivals
//	                 behind it; how late the generator itself sent is
//	                 reported separately.
//
// The query mix cycles through -strategies and spreads over -sources
// relation pairs (larger0/smaller0, larger1/smaller1, ... as
// registered by joinserve -pairs). By default the generator asks the
// server to omit row chunks (engine-bound load); -rows streams them
// back too (transfer-bound).
//
// -wire selects the result encoding: ndjson (the default) or binary,
// the internal/wire columnar frame stream negotiated via Accept. On
// the binary leg every response is fully decoded client-side — frame
// CRCs verified, row counts checked against the footer — so a load
// run doubles as an end-to-end integrity check of the wire path;
// -wirecompress auto additionally asks the server to block-compress
// chunks that shrink.
//
// -minqueries Q exits non-zero unless at least Q queries completed —
// the CI assertion that the service under load genuinely executed
// queries. What the counters must read (compressed frames) is
// asserted by internal/server's tests, and latency is judged by
// benchmark/, not from here.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"radixdecluster/internal/wire"
)

// request mirrors the server's QueryRequest wire shape.
type request struct {
	Larger          string `json:"larger"`
	Smaller         string `json:"smaller"`
	Strategy        string `json:"strategy,omitempty"`
	Parallelism     *int   `json:"parallelism,omitempty"`
	Compression     string `json:"compression,omitempty"`
	Limit           int    `json:"limit,omitempty"`
	OmitRows        bool   `json:"omitRows,omitempty"`
	WireCompression string `json:"wireCompression,omitempty"`
}

// footer is the tail NDJSON line of a response (the binary leg's
// footer frame carries the same document).
type footer struct {
	RowsStreamed int `json:"rowsStreamed"`
	Timing       struct {
		QueueMs float64 `json:"queueMs"`
		TotalMs float64 `json:"totalMs"`
	} `json:"timing"`
}

// tally accumulates outcomes across all load goroutines.
type tally struct {
	mu         sync.Mutex
	latencies  []time.Duration
	queueMs    float64
	serverMs   float64
	rows       int64
	bytes      int64 // response body bytes transferred
	compFrames int64 // binary column chunks that arrived compressed

	completed atomic.Int64
	rejected  atomic.Int64 // 429
	errored   atomic.Int64
}

func main() {
	addr := flag.String("addr", "http://127.0.0.1:8080", "joinserve base URL")
	duration := flag.Duration("duration", 5*time.Second, "load duration")
	concurrency := flag.Int("concurrency", 4, "closed-loop clients (ignored when -rate > 0)")
	rate := flag.Float64("rate", 0, "open-loop arrival rate in queries/s with Poisson gaps (0 = closed loop)")
	strategies := flag.String("strategies", "NSM-post-decluster", "comma-separated strategy mix, cycled per query (canonical names; empty entry = auto)")
	sources := flag.Int("sources", 1, "relation pairs to spread queries over (joinserve -pairs)")
	parallelism := flag.Int("parallelism", -1, "per-query parallelism (-1 = planner, 0 = serial)")
	compression := flag.String("compression", "", "per-query engine compression: off | auto | on (empty = off)")
	wireFmt := flag.String("wire", "ndjson", "result encoding: ndjson | binary (Accept-negotiated columnar frames, decoded and CRC-verified client-side)")
	wireCompress := flag.String("wirecompress", "", "binary leg frame compression: off | auto (empty = off)")
	limit := flag.Int("limit", 0, "rows to stream back per query (0 = all, when -rows)")
	rows := flag.Bool("rows", false, "stream row chunks back (default asks the server to omit them)")
	seed := flag.Int64("seed", 1, "arrival-process seed")
	minQueries := flag.Int("minqueries", 0, "fail (exit 1) unless at least this many queries complete")
	flag.Parse()

	binary := false
	switch *wireFmt {
	case "ndjson":
	case "binary":
		binary = true
	default:
		fail(fmt.Errorf("joinload: -wire %q (want ndjson or binary)", *wireFmt))
	}

	mix := strings.Split(*strategies, ",")
	tl := &tally{}
	client := &http.Client{}
	var seq atomic.Int64
	// fire sends one query and times it from start: the moment it was
	// sent (closed loop) or was due to be sent (open loop).
	fire := func(start time.Time) {
		i := seq.Add(1) - 1
		pair := int(i) % *sources
		req := request{
			Larger:      fmt.Sprintf("larger%d", pair),
			Smaller:     fmt.Sprintf("smaller%d", pair),
			Strategy:    strings.TrimSpace(mix[int(i)%len(mix)]),
			Parallelism: parallelism,
			Compression: *compression,
			Limit:       *limit,
			OmitRows:    !*rows,
		}
		if binary {
			req.WireCompression = *wireCompress
		}
		body, err := json.Marshal(req)
		if err != nil {
			fail(err)
		}
		hreq, err := http.NewRequest(http.MethodPost, *addr+"/v1/query", bytes.NewReader(body))
		if err != nil {
			fail(err)
		}
		hreq.Header.Set("Content-Type", "application/json")
		if binary {
			hreq.Header.Set("Accept", wire.ContentType)
		}
		resp, err := client.Do(hreq)
		if err != nil {
			tl.errored.Add(1)
			return
		}
		defer resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusOK:
		case http.StatusTooManyRequests:
			tl.rejected.Add(1)
			return
		default:
			tl.errored.Add(1)
			return
		}

		var foot footer
		var nbytes, compFrames int64
		if binary {
			// Decode the frame stream in full: every CRC verified, row
			// counts checked against the footer. A decode error is a
			// failed query — the load run is also an integrity check.
			cr := &countReader{r: resp.Body}
			d, err := wire.Decode(cr)
			if err != nil {
				tl.errored.Add(1)
				return
			}
			foot.RowsStreamed = d.Footer.RowsStreamed
			foot.Timing.QueueMs = d.Footer.Timing.QueueMs
			foot.Timing.TotalMs = d.Footer.Timing.TotalMs
			nbytes = cr.n
			compFrames = d.Stats.CompressedFrames
		} else {
			// Consume the NDJSON stream; the last line is the footer.
			cr := &countReader{r: resp.Body}
			sc := bufio.NewScanner(cr)
			sc.Buffer(make([]byte, 1<<20), 1<<26)
			var last []byte
			for sc.Scan() {
				last = append(last[:0], sc.Bytes()...)
			}
			if sc.Err() != nil || last == nil {
				tl.errored.Add(1)
				return
			}
			if err := json.Unmarshal(last, &foot); err != nil {
				tl.errored.Add(1)
				return
			}
			nbytes = cr.n
		}
		elapsed := time.Since(start)
		tl.completed.Add(1)
		tl.mu.Lock()
		tl.latencies = append(tl.latencies, elapsed)
		tl.queueMs += foot.Timing.QueueMs
		tl.serverMs += foot.Timing.TotalMs
		tl.rows += int64(foot.RowsStreamed)
		tl.bytes += nbytes
		tl.compFrames += compFrames
		tl.mu.Unlock()
	}

	deadline := time.Now().Add(*duration)
	var wg sync.WaitGroup
	if *rate > 0 {
		// Open loop: arrivals fall due at exponential gaps around the
		// target rate, laid out on absolute times so that neither the
		// time a send takes nor an oversleep pushes the later arrivals
		// back; every arrival gets its own goroutine so slow responses
		// never slow the arrival process down.
		fmt.Printf("joinload: open loop at %.1f q/s for %v against %s (wire=%s)\n", *rate, *duration, *addr, *wireFmt)
		rng := rand.New(rand.NewSource(*seed))
		var arrivals int
		var lateSum, lateMax time.Duration
		for due := time.Now(); due.Before(deadline); {
			time.Sleep(time.Until(due))
			late := time.Since(due)
			lateSum += late
			lateMax = max(lateMax, late)
			arrivals++
			wg.Add(1)
			go func(due time.Time) { defer wg.Done(); fire(due) }(due)
			due = due.Add(time.Duration(rng.ExpFloat64() / *rate * float64(time.Second)))
		}
		fmt.Printf("generator: %d arrivals (%.1f q/s), sent late by mean %v, max %v\n",
			arrivals, float64(arrivals)/duration.Seconds(),
			(lateSum / time.Duration(max(arrivals, 1))).Round(time.Microsecond), lateMax.Round(time.Microsecond))
	} else {
		fmt.Printf("joinload: closed loop, %d clients for %v against %s (wire=%s)\n", *concurrency, *duration, *addr, *wireFmt)
		for c := 0; c < *concurrency; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for time.Now().Before(deadline) {
					fire(time.Now())
				}
			}()
		}
	}
	wg.Wait()
	report(tl, *addr, *duration, *minQueries)
}

// countReader counts bytes as they stream through.
type countReader struct {
	r io.Reader
	n int64
}

func (c *countReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

func report(tl *tally, addr string, dur time.Duration, minQueries int) {
	n := tl.completed.Load()
	fmt.Printf("completed %d queries (%.1f q/s), %d rejected (429), %d errored\n",
		n, float64(n)/dur.Seconds(), tl.rejected.Load(), tl.errored.Load())
	tl.mu.Lock()
	defer tl.mu.Unlock()
	if n > 0 {
		sort.Slice(tl.latencies, func(i, j int) bool { return tl.latencies[i] < tl.latencies[j] })
		var sum time.Duration
		for _, l := range tl.latencies {
			sum += l
		}
		pct := func(p float64) time.Duration {
			i := int(p * float64(len(tl.latencies)-1))
			return tl.latencies[i]
		}
		fmt.Printf("latency: p50=%v p95=%v p99=%v mean=%v max=%v\n",
			pct(0.50).Round(time.Microsecond), pct(0.95).Round(time.Microsecond),
			pct(0.99).Round(time.Microsecond), (sum / time.Duration(n)).Round(time.Microsecond),
			tl.latencies[len(tl.latencies)-1].Round(time.Microsecond))
		mib := float64(tl.bytes) / (1 << 20)
		fmt.Printf("transfer: %d rows, %.1f MiB (%.1f MB/s), %d compressed frames\n",
			tl.rows, mib, mib/dur.Seconds(), tl.compFrames)
		fmt.Printf("server side: %.1fms engine time per query, %.1f%% of it queueing\n",
			tl.serverMs/float64(n), pctOf(tl.queueMs, tl.serverMs))
	}

	// The daemon's own view: its lifetime counters.
	var st struct {
		Server struct {
			Rejected      int64 `json:"queriesRejected"`
			ResultsBinary int64 `json:"resultsBinary"`
			WireBytes     int64 `json:"wireBytes"`
		} `json:"server"`
	}
	resp, err := http.Get(addr + "/v1/status")
	if err == nil {
		if json.NewDecoder(resp.Body).Decode(&st) == nil {
			fmt.Printf("daemon: %d rejected, %d binary results (%d wire bytes)\n",
				st.Server.Rejected, st.Server.ResultsBinary, st.Server.WireBytes)
		}
		resp.Body.Close()
	} else {
		fmt.Fprintf(os.Stderr, "joinload: status scrape: %v\n", err)
	}

	if n < int64(minQueries) {
		fail(fmt.Errorf("completed %d queries, below required -minqueries %d", n, minQueries))
	}
}

func pctOf(part, whole float64) float64 {
	if whole <= 0 {
		return 0
	}
	return 100 * part / whole
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
