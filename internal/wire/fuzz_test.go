package wire

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// FuzzWireRoundTrip checks encode∘decode is the identity for
// arbitrary column content under both compression policies, and that
// any single-byte corruption of the encoded stream is rejected —
// mirroring internal/compress's fuzz harness at the frame layer.
func FuzzWireRoundTrip(f *testing.F) {
	f.Add([]byte{1, 0, 0, 0, 255, 255, 255, 255}, uint8(2), uint16(3), true, 0)
	f.Add([]byte{}, uint8(1), uint16(1), false, 5)
	f.Add([]byte{0, 0, 0, 128, 1, 0, 0, 0, 2, 0, 0, 0}, uint8(3), uint16(4), true, 100)
	f.Fuzz(func(t *testing.T, raw []byte, ncols uint8, chunkRows uint16, comp bool, flip int) {
		nc := int(ncols%4) + 1
		vals := make([]int32, len(raw)/4)
		for i := range vals {
			vals[i] = int32(binary.LittleEndian.Uint32(raw[i*4:]))
		}
		n := len(vals) / nc
		cols := make([][]int32, nc)
		for c := range cols {
			cols[c] = vals[c*n : (c+1)*n]
		}
		chunk := int(chunkRows)%2048 + 1
		policy := CompressOff
		if comp {
			policy = CompressAuto
		}

		var buf bytes.Buffer
		w := NewWriter(&buf, nil, policy)
		if err := w.WriteHeader(Header{N: n, Names: names(nc)}); err != nil {
			t.Fatal(err)
		}
		for lo := 0; lo < n; lo += chunk {
			hi := lo + chunk
			if hi > n {
				hi = n
			}
			for c := range cols {
				if err := w.WriteColumn(c, lo, cols[c][lo:hi]); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := w.WriteFooter(Footer{RowsStreamed: n}); err != nil {
			t.Fatal(err)
		}
		stream := buf.Bytes()

		d, err := Decode(bytes.NewReader(stream))
		if err != nil {
			t.Fatalf("decode of a freshly encoded stream: %v", err)
		}
		if d.Rows != n || len(d.Cols) != nc {
			t.Fatalf("rows=%d cols=%d, want %d/%d", d.Rows, len(d.Cols), n, nc)
		}
		for c := range cols {
			for i := range cols[c] {
				if d.Cols[c][i] != cols[c][i] {
					t.Fatalf("col %d row %d: %d != %d", c, i, d.Cols[c][i], cols[c][i])
				}
			}
		}

		// Corruption rejection: flipping any byte must produce an
		// error — the CRC covers envelope head and payload both.
		if len(stream) > 0 {
			pos := flip % len(stream)
			if pos < 0 {
				pos += len(stream)
			}
			bad := append([]byte(nil), stream...)
			bad[pos] ^= 0x80
			if _, err := Decode(bytes.NewReader(bad)); err == nil {
				t.Fatalf("flip at byte %d decoded cleanly", pos)
			}
		}
	})
}

// FuzzWireDecodeRobust feeds arbitrary bytes to Decode: it must error
// or succeed, never panic, and never allocate unboundedly on lying
// headers.
func FuzzWireDecodeRobust(f *testing.F) {
	var buf bytes.Buffer
	w := NewWriter(&buf, nil, CompressAuto)
	w.WriteHeader(Header{N: 4, Names: []string{"a"}})  //nolint:errcheck
	w.WriteColumn(0, 0, []int32{1, 2, 3, 4})           //nolint:errcheck
	w.WriteFooter(Footer{RowsStreamed: 4})             //nolint:errcheck
	f.Add(buf.Bytes())                                 // a valid stream
	f.Add([]byte{'H', 0, 4, 0, 0, 0, 0, 0, 0, 0})      // short header
	f.Add([]byte{'C', 1, 12, 0, 0, 0, 0, 0, 0, 0})     // chunk before header
	f.Add([]byte{'X', 0, 0, 0, 0, 0, 0, 0, 0, 0})      // unknown type
	f.Add([]byte{'H', 0, 255, 255, 255, 255, 0, 0, 0}) // giant length, truncated
	f.Add(lyingStream(f, 64))                          // n = 1<<30, one tiny chunk
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := Decode(bytes.NewReader(data))
		if err == nil && d == nil {
			t.Fatal("nil result without error")
		}
	})
}
