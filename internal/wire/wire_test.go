package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
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

// A chunk whose frame payload passes the decoder's limit is refused
// before anything is written: Decode would reject the frame, and past
// 4 GiB its uint32 length field would wrap.
func TestWriteColumnRejectsOversizedFrame(t *testing.T) {
	// 12 prefix bytes + 4 per row is 4 bytes over the limit. The
	// slice is never read, so its pages stay untouched.
	big := make([]int32, (maxFrameBytes-columnPrefixBytes)/4+1)
	var buf bytes.Buffer
	w := NewWriter(&buf, nil, CompressOff)
	if err := w.WriteHeader(Header{N: len(big), Names: names(1)}); err != nil {
		t.Fatal(err)
	}
	before := buf.Len()
	err := w.WriteColumn(0, 0, big)
	if err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("oversized chunk: err = %v", err)
	}
	if buf.Len() != before || w.Stats().Frames != 1 {
		t.Fatalf("oversized chunk wrote %d bytes, %d frames", buf.Len()-before, w.Stats().Frames)
	}
}

// readerKinds are the two ways Decode meets its input: a reader that
// reports the bytes it still holds, and a plain one that does not.
var readerKinds = []struct {
	name string
	wrap func(*bytes.Reader) io.Reader
}{
	{"bytes.Reader", func(r *bytes.Reader) io.Reader { return r }},
	{"plain", func(r *bytes.Reader) io.Reader { return struct{ io.Reader }{r} }},
}

// lyingStream is a stream whose header claims 1<<30 rows of ncols
// columns and which then delivers one 4-row chunk and a footer.
func lyingStream(tb testing.TB, ncols int) []byte {
	tb.Helper()
	nm := make([]string, ncols)
	for i := range nm {
		nm[i] = fmt.Sprint("c", i)
	}
	var buf bytes.Buffer
	w := NewWriter(&buf, nil, CompressOff)
	if err := w.WriteHeader(Header{N: 1 << 30, Names: nm}); err != nil {
		tb.Fatal(err)
	}
	if err := w.WriteColumn(0, 0, []int32{1, 2, 3, 4}); err != nil {
		tb.Fatal(err)
	}
	if err := w.WriteFooter(Footer{RowsStreamed: 4}); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// A header's N sizes no allocation the stream cannot back with bytes:
// through a reader that reports its length and through one that does
// not, a lying header costs the stream's bytes plus the doubling
// path's first capacity (64 Ki rows), not N × columns. Nor does a
// chunk prefix that claims more rows than its frame carries.
func TestDecodeAllocationBound(t *testing.T) {
	header := lyingStream(t, 1024)
	// The column frame follows the header frame; its prefix's row
	// count sits 8 bytes into the prefix.
	chunk := bytes.Clone(header)
	cnt := envelopeBytes + int(binary.LittleEndian.Uint32(chunk[2:])) + envelopeBytes + 8
	binary.LittleEndian.PutUint32(chunk[cnt:], 1<<29)
	for _, stream := range []struct {
		name  string
		bytes []byte
	}{{"lying header", header}, {"lying chunk", chunk}} {
		// 256 KiB of first capacity, the rest for the header's decoded
		// names and the column slice headers.
		limit := uint64(len(stream.bytes)) + 512<<10
		for _, reader := range readerKinds {
			r := reader.wrap(bytes.NewReader(stream.bytes))
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := Decode(r)
			runtime.ReadMemStats(&after)
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("%s via %s: err = %v, want ErrCorrupt", stream.name, reader.name, err)
			}
			if got := after.TotalAlloc - before.TotalAlloc; got > limit {
				t.Errorf("%s via %s: decoding %d bytes allocated %d, limit %d",
					stream.name, reader.name, len(stream.bytes), got, limit)
			}
		}
	}
}

// A stream read from memory decodes into one allocation per column:
// 1 Mi rows × 4 columns cost the 16 MiB of columns, not the doubling
// path's copies, at the server's band and at the old 8192-row band.
// A plain reader decodes the same bytes by doubling.
func TestDecodeSizesColumnsOnce(t *testing.T) {
	if !isLittle {
		t.Skip("raw payloads read straight into the columns on little-endian only")
	}
	const n, ncols = 1 << 20, 4
	cols := testCols(n, ncols, false)
	for _, band := range []int{8192, 1 << 16} {
		stream, _ := encodeStream(t, cols, n, band, CompressOff, nil)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		d, err := Decode(bytes.NewReader(stream))
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		colBytes := uint64(4 * n * ncols)
		if got := after.TotalAlloc - before.TotalAlloc; got > colBytes+colBytes/10 {
			t.Errorf("band %d: decode allocated %d bytes for %d bytes of columns", band, got, colBytes)
		}
		plain, err := Decode(readerKinds[1].wrap(bytes.NewReader(stream)))
		if err != nil {
			t.Fatal(err)
		}
		for c := range cols {
			if cap(d.Cols[c]) != n || !slices.Equal(d.Cols[c], cols[c]) || !slices.Equal(plain.Cols[c], cols[c]) {
				t.Fatalf("band %d: column %d differs (cap %d)", band, c, cap(d.Cols[c]))
			}
		}
	}
}

// goldenCols is the content of testdata/v1-8192rows.rdxc: a smooth
// column that CompressAuto block-compresses and a noise column it
// keeps raw, 10 000 rows each.
func goldenCols() (cols [][]int32, n, band int) {
	const rows = 10_000
	return [][]int32{testCols(rows, 1, true)[0], testCols(rows, 1, false)[0]}, rows, 8192
}

// The format is version 1 on both sides of the frame-size change.
// testdata/v1-8192rows.rdxc was written by the writer that preceded it,
// in the 8192-row bands the server then used: this decoder reads it
// through either reader kind, and this writer reproduces it byte for
// byte, so decoders that read those streams read this writer's.
func TestFormatCompatibility(t *testing.T) {
	golden, err := os.ReadFile("testdata/v1-8192rows.rdxc")
	if err != nil {
		t.Fatal(err)
	}
	cols, n, band := goldenCols()
	for _, reader := range readerKinds {
		d, err := Decode(reader.wrap(bytes.NewReader(golden)))
		if err != nil {
			t.Fatalf("%s: %v", reader.name, err)
		}
		if d.Rows != n || d.Stats.CompressedFrames == 0 || d.Stats.CompressedFrames == d.Stats.Frames-2 {
			t.Fatalf("%s: rows %d, stats %+v; want both raw and compressed frames", reader.name, d.Rows, d.Stats)
		}
		for c := range cols {
			if !slices.Equal(d.Cols[c], cols[c]) {
				t.Fatalf("%s: golden column %d differs", reader.name, c)
			}
		}
	}
	stream, _ := encodeStream(t, cols, n, band, CompressAuto, nil)
	if !bytes.Equal(stream, golden) {
		t.Fatalf("writer emits %d bytes that differ from the %d golden v1 bytes", len(stream), len(golden))
	}
}
