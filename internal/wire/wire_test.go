package wire

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"radixdecluster/internal/mempool"
)

// testCols builds ncols columns of n rows with deterministic,
// delta-compressible content (the workload generator's oid*31+j
// shape) when smooth, or a pseudo-random incompressible pattern
// otherwise.
func testCols(n, ncols int, smooth bool) [][]int32 {
	cols := make([][]int32, ncols)
	for c := range cols {
		col := make([]int32, n)
		for i := range col {
			if smooth {
				col[i] = int32(i)*31 + int32(c)
			} else {
				x := uint32(i)*2654435761 + uint32(c)*0x9E3779B9
				x ^= x >> 16
				x *= 0x7feb352d
				x ^= x >> 15
				x *= 0x846ca68b
				x ^= x >> 16
				col[i] = int32(x)
			}
		}
		cols[c] = col
	}
	return cols
}

func names(ncols int) []string {
	out := make([]string, ncols)
	for i := range out {
		out[i] = "col" + string(rune('a'+i))
	}
	return out
}

// encodeStream writes a full stream: header, column chunks in row
// bands of chunkRows, footer.
func encodeStream(t testing.TB, cols [][]int32, n, chunkRows int, comp Compression, lease *mempool.Lease) ([]byte, Stats) {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf, lease, comp)
	if err := w.WriteHeader(Header{N: n, Names: names(len(cols)), Plan: "test", Workers: 2}); err != nil {
		t.Fatal(err)
	}
	for lo := 0; lo < n; lo += chunkRows {
		hi := lo + chunkRows
		if hi > n {
			hi = n
		}
		for c := range cols {
			if err := w.WriteColumn(c, lo, cols[c][lo:hi]); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := w.WriteFooter(Footer{RowsStreamed: n, Timing: Timing{TotalMs: 1.5}}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), w.Stats()
}

func checkRoundTrip(t *testing.T, cols [][]int32, n int, stream []byte) *Decoded {
	t.Helper()
	d, err := Decode(bytes.NewReader(stream))
	if err != nil {
		t.Fatal(err)
	}
	if d.Header.N != len(cols[0]) || len(d.Cols) != len(cols) {
		t.Fatalf("header n=%d cols=%d, want %d/%d", d.Header.N, len(d.Cols), len(cols[0]), len(cols))
	}
	if d.Rows != n || d.Footer.RowsStreamed != n {
		t.Fatalf("rows=%d footer=%d, want %d", d.Rows, d.Footer.RowsStreamed, n)
	}
	for c := range cols {
		for i := 0; i < n; i++ {
			if d.Cols[c][i] != cols[c][i] {
				t.Fatalf("col %d row %d = %d, want %d", c, i, d.Cols[c][i], cols[c][i])
			}
		}
	}
	return d
}

func TestRoundTripRaw(t *testing.T) {
	const n = 10_000
	cols := testCols(n, 3, false)
	stream, st := encodeStream(t, cols, n, 1024, CompressOff, nil)
	d := checkRoundTrip(t, cols, n, stream)
	if st.CompressedFrames != 0 || d.Stats.CompressedFrames != 0 {
		t.Fatalf("CompressOff produced compressed frames: %+v / %+v", st, d.Stats)
	}
	if st.Frames != d.Stats.Frames || st.Bytes != d.Stats.Bytes {
		t.Fatalf("writer stats %+v != decoder stats %+v", st, d.Stats)
	}
	if int64(len(stream)) != st.Bytes {
		t.Fatalf("stats bytes %d, stream is %d", st.Bytes, len(stream))
	}
}

func TestRoundTripCompressed(t *testing.T) {
	const n = 10_000
	cols := testCols(n, 3, true) // smooth: DeltaFOR-friendly
	lease := mempool.New(0).NewLease()
	defer lease.Release()
	stream, st := encodeStream(t, cols, n, 2048, CompressAuto, lease)
	d := checkRoundTrip(t, cols, n, stream)
	if st.CompressedFrames == 0 {
		t.Fatal("smooth columns under CompressAuto produced no compressed frames")
	}
	if st.SavedBytes <= 0 {
		t.Fatalf("no wire bytes saved: %+v", st)
	}
	if d.Stats.CompressedFrames != st.CompressedFrames || d.Stats.SavedBytes != st.SavedBytes {
		t.Fatalf("decoder stats %+v != writer stats %+v", d.Stats, st)
	}
	// The compressed stream must actually be smaller than the raw one.
	raw, _ := encodeStream(t, cols, n, 2048, CompressOff, nil)
	if len(stream) >= len(raw) {
		t.Fatalf("compressed stream %d bytes >= raw %d", len(stream), len(raw))
	}
}

// Incompressible chunks must stay raw under CompressAuto — the policy
// only spends decode CPU when the wire saving is real.
func TestAutoKeepsNoiseRaw(t *testing.T) {
	const n = 8192
	cols := testCols(n, 1, false)
	stream, st := encodeStream(t, cols, n, 4096, CompressAuto, nil)
	if st.CompressedFrames != 0 {
		t.Fatalf("noise compressed: %+v", st)
	}
	checkRoundTrip(t, cols, n, stream)
}

// Limit semantics: fewer rows than Header.N stream, and the decoder
// accepts the short columns as long as the footer agrees.
func TestPartialStream(t *testing.T) {
	const n, limit = 5000, 123
	cols := testCols(n, 2, false)
	var buf bytes.Buffer
	w := NewWriter(&buf, nil, CompressOff)
	if err := w.WriteHeader(Header{N: n, Names: names(2)}); err != nil {
		t.Fatal(err)
	}
	for c := range cols {
		if err := w.WriteColumn(c, 0, cols[c][:limit]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.WriteFooter(Footer{RowsStreamed: limit}); err != nil {
		t.Fatal(err)
	}
	d, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if d.Rows != limit || len(d.Cols[0]) != limit {
		t.Fatalf("rows=%d len=%d, want %d", d.Rows, len(d.Cols[0]), limit)
	}
}

// OmitRows semantics: header and footer only, no column frames.
func TestHeaderFooterOnly(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, nil, CompressOff)
	if err := w.WriteHeader(Header{N: 999, Names: names(2)}); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteFooter(Footer{RowsStreamed: 0}); err != nil {
		t.Fatal(err)
	}
	d, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if d.Rows != 0 || d.Header.N != 999 || d.Stats.Frames != 2 {
		t.Fatalf("decoded %+v", d)
	}
}

// Every single-byte corruption of a valid stream must be rejected:
// the CRC covers the envelope head and payload, and corrupting the
// CRC field itself fails the compare.
func TestCorruptionRejected(t *testing.T) {
	const n = 600
	cols := testCols(n, 2, true)
	stream, _ := encodeStream(t, cols, n, 256, CompressAuto, nil)
	for i := range stream {
		bad := append([]byte(nil), stream...)
		bad[i] ^= 0x40
		if _, err := Decode(bytes.NewReader(bad)); err == nil {
			t.Fatalf("flip at byte %d of %d decoded cleanly", i, len(stream))
		} else if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("flip at byte %d: non-corruption error %v", i, err)
		}
	}
	// Truncation at every boundary is rejected too.
	for cut := 0; cut < len(stream); cut += 97 {
		if _, err := Decode(bytes.NewReader(stream[:cut])); err == nil {
			t.Fatalf("truncation at %d decoded cleanly", cut)
		}
	}
}

// Writer misuse is reported, not silently encoded.
func TestWriterContract(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, nil, CompressOff)
	if err := w.WriteColumn(0, 0, []int32{1}); err == nil {
		t.Fatal("WriteColumn before WriteHeader succeeded")
	}
	if err := w.WriteFooter(Footer{}); err == nil {
		t.Fatal("WriteFooter before WriteHeader succeeded")
	}
	if err := w.WriteHeader(Header{N: 1, Names: names(1)}); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteHeader(Header{}); err == nil {
		t.Fatal("second WriteHeader succeeded")
	}
	if err := w.WriteColumn(1, 0, []int32{1}); err == nil ||
		!strings.Contains(err.Error(), "outside") {
		t.Fatalf("out-of-range column: %v", err)
	}
}

// Decoder ordering contracts: chunks must arrive in row order per
// column, within bounds, for declared columns.
func TestDecoderOrdering(t *testing.T) {
	mk := func(write func(w *Writer)) error {
		var buf bytes.Buffer
		w := NewWriter(&buf, nil, CompressOff)
		if err := w.WriteHeader(Header{N: 100, Names: names(1)}); err != nil {
			t.Fatal(err)
		}
		write(w)
		if err := w.WriteFooter(Footer{RowsStreamed: 100}); err != nil {
			t.Fatal(err)
		}
		_, err := Decode(&buf)
		return err
	}
	vals := make([]int32, 100)
	if err := mk(func(w *Writer) { w.WriteColumn(0, 50, vals[:50]) }); err == nil { //nolint:errcheck
		t.Fatal("gap accepted")
	}
	if err := mk(func(w *Writer) { w.WriteColumn(0, 0, make([]int32, 150)) }); err == nil { //nolint:errcheck
		t.Fatal("overflow accepted")
	}
	if err := mk(func(w *Writer) { w.WriteColumn(0, 0, vals) }); err != nil {
		t.Fatal(err)
	}
}

// The zero-copy contract: a raw column frame's payload IS the column
// memory. Guarded here so a refactor cannot quietly reintroduce a
// copy — encoding a large raw band must not allocate at all.
func TestRawEncodeZeroAlloc(t *testing.T) {
	if !isLittle {
		t.Skip("reinterpret fast path is little-endian only")
	}
	const n = 1 << 16
	cols := testCols(n, 4, false)
	var sink int64
	allocs := testing.AllocsPerRun(10, func() {
		w := NewWriter(discard{}, nil, CompressOff)
		// Header/footer JSON allocates; the column band must not.
		if err := w.WriteHeader(Header{N: n, Names: names(4)}); err != nil {
			t.Fatal(err)
		}
		before := testing.AllocsPerRun(1, func() {
			for c := range cols {
				if err := w.WriteColumn(c, 0, cols[c]); err != nil {
					t.Fatal(err)
				}
			}
		})
		if before != 0 {
			t.Fatalf("raw column band allocated %.0f times", before)
		}
		sink += w.Stats().Bytes
	})
	_ = allocs
	if sink == 0 {
		t.Fatal("nothing written")
	}
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }
