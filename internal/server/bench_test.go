package server

import (
	"net/http"
	"net/http/httptest"
	"os"
	"testing"

	rd "radixdecluster"

	"radixdecluster/internal/wire"
)

// nullResponseWriter swallows the stream, counting bytes — the
// benchmarks measure encode cost, not socket cost.
type nullResponseWriter struct {
	h     http.Header
	bytes int64
}

func (w *nullResponseWriter) Header() http.Header {
	if w.h == nil {
		w.h = http.Header{}
	}
	return w.h
}
func (w *nullResponseWriter) WriteHeader(int) {}
func (w *nullResponseWriter) Write(p []byte) (int, error) {
	w.bytes += int64(len(p))
	return len(p), nil
}

// benchResult builds a server and one materialised result to stream
// repeatedly: 128K rows by 4 columns, the workload generator's smooth
// payload shape.
func benchResult(tb testing.TB) (*Server, *rd.Result) {
	tb.Helper()
	s, _ := newTestServer(tb, rd.RuntimeConfig{Workers: 2, MaxConcurrentQueries: 2},
		Config{}, 128<<10, 2)
	larger, _ := s.relation("larger")
	smaller, _ := s.relation("smaller")
	res, err := rd.ProjectJoin(rd.JoinQuery{
		Larger: larger, Smaller: smaller, LargerKey: "key", SmallerKey: "key",
		LargerProject: []string{"a1", "a2"}, SmallerProject: []string{"a1", "a2"},
	})
	if err != nil {
		tb.Fatal(err)
	}
	return s, res
}

// BenchmarkServeResult compares the result-encoding legs over one
// materialised result. Both sub-benchmarks SetBytes the same logical
// raw volume (4 bytes x rows x columns), so MB/s reads as logical
// result throughput and the ns/op ratio is the encode speedup.
func BenchmarkServeResult(b *testing.B) {
	s, res := benchResult(b)
	defer res.Release()
	req := &QueryRequest{}
	logical := int64(4 * res.N * len(res.Cols))

	b.Run("wire=ndjson", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(logical)
		for i := 0; i < b.N; i++ {
			s.streamNDJSON(&nullResponseWriter{}, req, res)
		}
	})
	b.Run("wire=binary", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(logical)
		for i := 0; i < b.N; i++ {
			s.streamBinary(&nullResponseWriter{}, req, res, wire.CompressOff)
		}
	})
	b.Run("wire=binary-compressed", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(logical)
		for i := 0; i < b.N; i++ {
			s.streamBinary(&nullResponseWriter{}, req, res, wire.CompressAuto)
		}
	})
	// The binary leg through a loopback socket and the decoder: the
	// writes, flushes and reads a served answer pays, in-process.
	b.Run("wire=binary-loopback", func(b *testing.B) {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			s.streamBinary(w, req, res, wire.CompressOff)
		}))
		defer ts.Close()
		b.ReportAllocs()
		b.SetBytes(logical)
		for i := 0; i < b.N; i++ {
			resp, err := http.Get(ts.URL)
			if err != nil {
				b.Fatal(err)
			}
			d, err := wire.Decode(resp.Body)
			resp.Body.Close()
			if err != nil {
				b.Fatal(err)
			}
			if d.Rows != res.N {
				b.Fatalf("decoded %d rows of %d", d.Rows, res.N)
			}
		}
	})
}

// The binary wire path's headline contract: the binary leg encodes
// the same result at least 3x faster than NDJSON and with strictly
// fewer allocations per response. The allocation half is exact and
// always asserted; the wall-clock ratio is logged on every run and
// asserted only under RADIX_ASSERT_SPEEDUP=1, which CI's multi-core
// leg exports for this test alone.
func TestServeResultEncodeEfficiency(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	if raceEnabled {
		t.Skip("throughput ratios are meaningless under the race detector")
	}
	s, res := benchResult(t)
	req := &QueryRequest{}

	ndjson := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s.streamNDJSON(&nullResponseWriter{}, req, res)
		}
	})
	binary := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s.streamBinary(&nullResponseWriter{}, req, res, wire.CompressOff)
		}
	})

	nsJSON := float64(ndjson.NsPerOp())
	nsBin := float64(binary.NsPerOp())
	t.Logf("ndjson %.0f ns/op %d allocs/op; binary %.0f ns/op %d allocs/op; speedup %.1fx",
		nsJSON, ndjson.AllocsPerOp(), nsBin, binary.AllocsPerOp(), nsJSON/nsBin)
	if os.Getenv("RADIX_ASSERT_SPEEDUP") != "" && nsBin*3 > nsJSON {
		t.Errorf("binary encode is only %.2fx faster than NDJSON, contract is >= 3x",
			nsJSON/nsBin)
	}
	if binary.AllocsPerOp() >= ndjson.AllocsPerOp() {
		t.Errorf("binary allocs/op %d not strictly below NDJSON's %d",
			binary.AllocsPerOp(), ndjson.AllocsPerOp())
	}
}
