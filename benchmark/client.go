package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"radixdecluster/internal/wire"
)

// sample is one attempted query as the client saw it. The spans are
// contiguous: total = lateness + firstByte + read + decode + verify
// after any retries (plus nanoseconds of bookkeeping between them).
type sample struct {
	due       time.Duration // when the query was due, from pass start
	lateness  time.Duration // how long after due it was sent (0 in a closed loop)
	retry     time.Duration // first send -> the send that was answered, when 429s intervened
	firstByte time.Duration // send -> response headers
	read      time.Duration // headers -> last body byte
	decode    time.Duration // frame/NDJSON decoding, CRCs included
	verify    time.Duration // row checks and checksum
	total     time.Duration // due -> last byte verified
	bytes     int64         // response body bytes
	timing    wire.Timing   // the program's own phase report
	hits      int64         // shared-scan hits the footer reports
	err       error         // nil: correct answer
	rejected  int           // attempts answered 429
	traced    bool          // a span tree was recorded for it
}

func (s *sample) ok() bool { return s.err == nil }

// doer issues one query of a fixed shape and checks the answer. full
// asks for the per-row closed-form check on top of row count and
// checksum.
type doer interface {
	do(full bool) sample
}

// queryBody mirrors the fields of server.QueryRequest the workloads
// set.
type queryBody struct {
	Larger      string `json:"larger"`
	Smaller     string `json:"smaller"`
	Compression string `json:"compression,omitempty"`
	Limit       int    `json:"limit,omitempty"`
	OmitRows    bool   `json:"omitRows,omitempty"`
}

// httpDoer is one connection to joinserve sending one query shape.
type httpDoer struct {
	hc     *http.Client
	url    string
	body   []byte
	binary bool
	exp    *expect
	buf    []byte  // response body, reused across queries
	row    []int32 // scratch row
}

func newHTTPDoer(baseURL string, q queryBody, binary bool, exp *expect) (*httpDoer, error) {
	body, err := json.Marshal(q)
	if err != nil {
		return nil, err
	}
	return &httpDoer{
		// One transport per doer: a doer is a connection, as a client
		// goroutine of the load shape is.
		hc:   &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}, Timeout: time.Minute},
		url:  baseURL + "/v1/query",
		body: body, binary: binary, exp: exp,
		row: make([]int32, 2*exp.o.pi),
	}, nil
}

func (d *httpDoer) close() { d.hc.CloseIdleConnections() }

// maxRejections is how many 429s a query takes before it counts as
// failed. A client of the service waits as long as Retry-After says and
// asks again; the wait is part of the query's latency, so a rejected
// query misses its latency limit but is not a wrong answer.
const maxRejections = 3

func (d *httpDoer) do(full bool) sample {
	var s sample
	t0 := time.Now()
	for {
		sent := time.Now()
		s.retry = sent.Sub(t0)
		var retryAfter time.Duration
		retryAfter, s.err = d.exchange(&s, sent, full)
		if retryAfter < 0 || s.rejected == maxRejections {
			break
		}
		time.Sleep(retryAfter)
	}
	s.total = time.Since(t0)
	return s
}

// exchange makes one attempt. It returns a wait of zero or more when
// the answer was 429 and -1 otherwise.
func (d *httpDoer) exchange(s *sample, t0 time.Time, full bool) (retryAfter time.Duration, err error) {
	req, err := http.NewRequest(http.MethodPost, d.url, bytes.NewReader(d.body))
	if err != nil {
		return -1, err
	}
	req.Header.Set("Content-Type", "application/json")
	if d.binary {
		req.Header.Set("Accept", wire.ContentType)
	}
	resp, err := d.hc.Do(req)
	if err != nil {
		return -1, err
	}
	defer resp.Body.Close()
	t1 := time.Now()
	s.firstByte = t1.Sub(t0)

	d.buf, err = readAllInto(d.buf[:0], resp.Body)
	t2 := time.Now()
	s.read = t2.Sub(t1)
	s.bytes = int64(len(d.buf))
	if resp.StatusCode != http.StatusOK {
		err := fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(d.buf))
		if resp.StatusCode != http.StatusTooManyRequests {
			return -1, err
		}
		s.rejected++
		secs, _ := strconv.Atoi(resp.Header.Get("Retry-After")) // absent or malformed: ask again at once
		return time.Duration(max(secs, 0)) * time.Second, err
	}
	if err != nil {
		return -1, fmt.Errorf("reading body: %w", err)
	}

	rc := rowCheck{e: d.exp, full: full}
	var headerN int
	if d.binary {
		headerN, err = d.checkBinary(s, &rc, t2)
	} else {
		headerN, err = d.checkNDJSON(s, &rc, t2)
	}
	if err != nil {
		return -1, err
	}
	return -1, rc.finish(headerN)
}

// checkBinary decodes the frame stream (every CRC verified by
// wire.Decode) and then walks the columns row by row.
func (d *httpDoer) checkBinary(s *sample, rc *rowCheck, t2 time.Time) (int, error) {
	dec, err := wire.Decode(bytes.NewReader(d.buf))
	t3 := time.Now()
	s.decode = t3.Sub(t2)
	if err != nil {
		return 0, err
	}
	defer func() { s.verify = time.Since(t3) }()
	s.timing, s.hits = dec.Footer.Timing, dec.Footer.SharedScanHits
	if dec.Rows > 0 && len(dec.Cols) != len(d.row) {
		return 0, fmt.Errorf("%d columns, want %d", len(dec.Cols), len(d.row))
	}
	for i := 0; i < dec.Rows; i++ {
		for c := range d.row {
			d.row[c] = dec.Cols[c][i]
		}
		if err := rc.add(d.row); err != nil {
			return 0, err
		}
	}
	return dec.Header.N, nil
}

// checkNDJSON parses header line, row-chunk lines and footer line.
// Rows are checked as they are parsed, so the verify span is the
// whole walk and decode is the header and footer documents only;
// their sum is the client's self time either way.
func (d *httpDoer) checkNDJSON(s *sample, rc *rowCheck, t2 time.Time) (int, error) {
	defer func() { s.verify = time.Since(t2) - s.decode }()
	body := d.buf
	if len(body) == 0 || body[len(body)-1] != '\n' {
		return 0, errors.New("short body: does not end in a newline")
	}
	lines := bytes.Split(body[:len(body)-1], []byte{'\n'})
	if len(lines) < 2 {
		return 0, fmt.Errorf("short body: %d lines", len(lines))
	}
	var head wire.Header
	var foot wire.Footer
	if err := strictJSON(lines[0], &head); err != nil {
		return 0, fmt.Errorf("header line: %w", err)
	}
	if err := strictJSON(lines[len(lines)-1], &foot); err != nil {
		return 0, fmt.Errorf("short body: footer line: %w", err)
	}
	s.decode = time.Since(t2)
	s.timing, s.hits = foot.Timing, foot.SharedScanHits
	for _, ln := range lines[1 : len(lines)-1] {
		if err := parseRowsLine(ln, d.row, rc.add); err != nil {
			return 0, err
		}
	}
	if foot.RowsStreamed != rc.rows {
		return 0, fmt.Errorf("footer says %d rows streamed, parsed %d", foot.RowsStreamed, rc.rows)
	}
	return head.N, nil
}

func strictJSON(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// parseRowsLine parses one `{"rows":[[a,b],[c,d]]}` chunk line and
// hands each row (in the caller's scratch, len(row) cells wide) to
// emit. encoding/json would spend several times the server's own
// encode time here and skew what the two cores are doing; the chunk
// grammar is integers, commas and brackets, so it is parsed directly
// and anything else is an error.
func parseRowsLine(line []byte, row []int32, emit func([]int32) error) error {
	const pre, post = `{"rows":[`, `]}`
	if !bytes.HasPrefix(line, []byte(pre)) || !bytes.HasSuffix(line, []byte(post)) || len(line) < len(pre)+len(post) {
		return fmt.Errorf("not a row-chunk line: %.40q", line)
	}
	p := line[len(pre) : len(line)-len(post)]
	bad := func(i int) error { return fmt.Errorf("row-chunk line: unexpected input at byte %d", len(pre)+i) }
	for i := 0; i < len(p); {
		if p[i] != '[' {
			return bad(i)
		}
		i++
		for c := 0; ; c++ {
			if c == len(row) {
				return fmt.Errorf("row-chunk line: row wider than %d cells", len(row))
			}
			neg := i < len(p) && p[i] == '-'
			if neg {
				i++
			}
			start, v := i, int64(0)
			for ; i < len(p) && p[i] >= '0' && p[i] <= '9' && i-start < 11; i++ {
				v = v*10 + int64(p[i]-'0')
			}
			if i == start || i == len(p) {
				return bad(i)
			}
			if neg {
				v = -v
			}
			row[c] = int32(v)
			if p[i] == ',' {
				i++
				continue
			}
			if p[i] != ']' {
				return bad(i)
			}
			if c != len(row)-1 {
				return fmt.Errorf("row-chunk line: row of %d cells, want %d", c+1, len(row))
			}
			i++
			break
		}
		if err := emit(row); err != nil {
			return err
		}
		if i < len(p) {
			if p[i] != ',' {
				return bad(i)
			}
			i++
		}
	}
	return nil
}

// readAllInto appends r to buf until EOF, growing buf geometrically;
// with a reused buffer a steady-state read allocates nothing.
func readAllInto(buf []byte, r io.Reader) ([]byte, error) {
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}
