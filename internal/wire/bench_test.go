package wire

import (
	"bytes"
	"fmt"
	"testing"
)

// decodeSink keeps the benchmarked decode from being optimised away.
var decodeSink *Decoded

// BenchmarkDecode decodes a 1 Mi × 4 raw stream, the benchmark's
// svc_stream_binary answer, cut in the old 8192-row bands and in the
// server's 64 Ki-row (256 KiB a column frame) bands, read from memory
// (a *bytes.Reader reports its length, so each column is sized once)
// and through a plain io.Reader (columns grow by doubling).
func BenchmarkDecode(b *testing.B) {
	const n, ncols = 1 << 20, 4
	cols := testCols(n, ncols, false)
	for _, band := range []int{8192, 1 << 16} {
		stream, _ := encodeStream(b, cols, n, band, CompressOff, nil)
		for _, reader := range readerKinds {
			b.Run(fmt.Sprintf("band=%d/reader=%s", band, reader.name), func(b *testing.B) {
				b.ReportAllocs()
				b.SetBytes(int64(4 * n * ncols))
				for i := 0; i < b.N; i++ {
					d, err := Decode(reader.wrap(bytes.NewReader(stream)))
					if err != nil {
						b.Fatal(err)
					}
					decodeSink = d
				}
			})
		}
	}
}
