package obs

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// TestServeMetricsAndPprof serves the mux on a real listener and
// scrapes both endpoints — the path any Prometheus collector takes.
func TestServeMetricsAndPprof(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("http_test_total", "t")
	c.Add(7)
	srv := httptest.NewServer(NewMux(r))
	defer srv.Close()

	code, body := get(t, srv.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	if !strings.Contains(body, "http_test_total 7") {
		t.Fatalf("/metrics body missing sample:\n%s", body)
	}
	if ParseSamples(body)["http_test_total"] != 7 {
		t.Fatal("scrape did not parse the counter back")
	}

	code, body = get(t, srv.URL+"/debug/pprof/")
	if code != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Fatalf("/debug/pprof/ status %d, body %.80s", code, body)
	}
}
