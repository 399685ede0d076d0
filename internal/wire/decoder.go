package wire

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"radixdecluster/internal/compress"
)

// ErrCorrupt wraps every integrity failure a Decode reports: CRC
// mismatches, bad magic or version, malformed prefixes, truncation.
var ErrCorrupt = errors.New("wire: corrupt stream")

// Decoded is a fully decoded result stream.
type Decoded struct {
	Header Header
	// Cols holds the reassembled result columns, one per header name,
	// each trimmed to the rows actually streamed (Limit and OmitRows
	// send fewer than Header.N).
	Cols [][]int32
	// Rows is the number of rows received per column, verified both
	// against the chunk prefixes and the footer's RowsStreamed.
	Rows   int
	Footer Footer
	Stats  Stats
}

// Decode reads one complete stream from r, verifying every frame's
// CRC, the header magic and version, chunk ordering and bounds, and
// that the footer's row count matches the rows received. Raw column
// payloads are read directly into the reassembled columns' memory on
// little-endian machines — the zero-copy path in reverse.
//
// Each column is sized once, at the header's N, when r reports the
// bytes it still holds (a Len() int method, as *bytes.Reader and
// *bytes.Buffer have) and those bytes could carry every column at N
// rows raw. Otherwise a column's capacity doubles with the rows that
// arrive, from 64 Ki rows and never past N. A header's N alone thus
// never sizes an allocation: a lying header cannot make one larger
// than the reader's bytes or the doubling's first step.
func Decode(r io.Reader) (*Decoded, error) {
	d := &decoder{r: r, firstCap: 1 << 16}
	if err := d.run(); err != nil {
		return nil, err
	}
	return &d.out, nil
}

type decoder struct {
	r        io.Reader
	out      Decoded
	scratch  []byte // compressed payloads and big-endian fallback reads
	firstCap int    // a column's first capacity, before the cap at N
	// env and prefix receive each frame's envelope and column prefix;
	// as decoder fields they are not a heap allocation per frame.
	env     [envelopeBytes]byte
	prefix  [columnPrefixBytes]byte
	sawHdr  bool
	sawFoot bool
}

func (d *decoder) run() error {
	for !d.sawFoot {
		if err := d.frame(); err != nil {
			return err
		}
	}
	// The footer closes the stream; trailing bytes are corruption.
	var one [1]byte
	if n, _ := io.ReadFull(d.r, one[:]); n != 0 {
		return fmt.Errorf("%w: data after footer frame", ErrCorrupt)
	}
	rows := 0
	if len(d.out.Cols) > 0 {
		rows = len(d.out.Cols[0])
		for i, c := range d.out.Cols {
			if len(c) != rows {
				return fmt.Errorf("%w: column 0 has %d rows, column %d has %d",
					ErrCorrupt, rows, i, len(c))
			}
		}
	}
	if len(d.out.Cols) > 0 && d.out.Footer.RowsStreamed != rows {
		return fmt.Errorf("%w: footer says %d rows streamed, received %d",
			ErrCorrupt, d.out.Footer.RowsStreamed, rows)
	}
	d.out.Rows = rows
	return nil
}

// frame reads and dispatches one frame.
func (d *decoder) frame() error {
	env := d.env[:]
	if _, err := io.ReadFull(d.r, env); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return fmt.Errorf("%w: truncated before footer", ErrCorrupt)
		}
		return err
	}
	typ, flags := env[0], env[1]
	n := int(binary.LittleEndian.Uint32(env[2:]))
	want := binary.LittleEndian.Uint32(env[6:])
	if n > maxFrameBytes {
		return fmt.Errorf("%w: frame claims %d payload bytes", ErrCorrupt, n)
	}
	crc := crc32.Update(0, castagnoli, env[:6])
	if err := d.dispatch(typ, flags, n, crc, want); err != nil {
		return err
	}
	d.out.Stats.Frames++
	d.out.Stats.Bytes += int64(envelopeBytes + n)
	return nil
}

func (d *decoder) dispatch(typ, flags byte, n int, crc, want uint32) error {
	switch typ {
	case frameHeader:
		if d.sawHdr {
			return fmt.Errorf("%w: second header frame", ErrCorrupt)
		}
		payload, err := d.readScratch(n)
		if err != nil {
			return err
		}
		if crc32.Update(crc, castagnoli, payload) != want {
			return fmt.Errorf("%w: header frame CRC mismatch", ErrCorrupt)
		}
		return d.header(payload)

	case frameColumn:
		if !d.sawHdr {
			return fmt.Errorf("%w: column chunk before header", ErrCorrupt)
		}
		if n < columnPrefixBytes {
			return fmt.Errorf("%w: column frame of %d bytes", ErrCorrupt, n)
		}
		return d.column(flags, n, crc, want)

	case frameFooter:
		if !d.sawHdr {
			return fmt.Errorf("%w: footer before header", ErrCorrupt)
		}
		payload, err := d.readScratch(n)
		if err != nil {
			return err
		}
		if crc32.Update(crc, castagnoli, payload) != want {
			return fmt.Errorf("%w: footer frame CRC mismatch", ErrCorrupt)
		}
		if err := json.Unmarshal(payload, &d.out.Footer); err != nil {
			return fmt.Errorf("%w: footer: %v", ErrCorrupt, err)
		}
		d.sawFoot = true
		return nil
	}
	return fmt.Errorf("%w: unknown frame type %#x", ErrCorrupt, typ)
}

// header validates magic and version and initialises the columns.
func (d *decoder) header(payload []byte) error {
	if len(payload) < 6 {
		return fmt.Errorf("%w: header payload of %d bytes", ErrCorrupt, len(payload))
	}
	if [4]byte(payload[:4]) != magic {
		return fmt.Errorf("%w: bad magic %q", ErrCorrupt, payload[:4])
	}
	if v := binary.LittleEndian.Uint16(payload[4:]); v != Version {
		return fmt.Errorf("%w: format version %d, this decoder speaks %d", ErrCorrupt, v, Version)
	}
	if err := json.Unmarshal(payload[6:], &d.out.Header); err != nil {
		return fmt.Errorf("%w: header: %v", ErrCorrupt, err)
	}
	h := &d.out.Header
	if h.N < 0 || len(h.Names) > 1<<16 {
		return fmt.Errorf("%w: header n=%d ncols=%d", ErrCorrupt, h.N, len(h.Names))
	}
	d.out.Cols = make([][]int32, len(h.Names))
	if r, ok := d.r.(interface{ Len() int }); ok && len(h.Names) > 0 &&
		h.N <= r.Len()/4/len(h.Names) {
		d.firstCap = h.N
	}
	d.sawHdr = true
	return nil
}

// column reads one chunk frame, growing the target column and reading
// raw payloads straight into its memory.
func (d *decoder) column(flags byte, n int, crc, want uint32) error {
	prefix := d.prefix[:]
	if _, err := io.ReadFull(d.r, prefix); err != nil {
		return fmt.Errorf("%w: truncated column prefix", ErrCorrupt)
	}
	crc = crc32.Update(crc, castagnoli, prefix)
	col := int(binary.LittleEndian.Uint16(prefix[0:]))
	start := int(binary.LittleEndian.Uint32(prefix[4:]))
	cnt := int(binary.LittleEndian.Uint32(prefix[8:]))
	body := n - columnPrefixBytes
	if col >= len(d.out.Cols) {
		return fmt.Errorf("%w: chunk for column %d of %d", ErrCorrupt, col, len(d.out.Cols))
	}
	if start != len(d.out.Cols[col]) {
		return fmt.Errorf("%w: column %d chunk starts at row %d, expected %d",
			ErrCorrupt, col, start, len(d.out.Cols[col]))
	}
	if start+cnt > d.out.Header.N {
		return fmt.Errorf("%w: column %d chunk [%d,%d) exceeds n=%d",
			ErrCorrupt, col, start, start+cnt, d.out.Header.N)
	}
	// The row count is checked against the frame's bytes before the
	// column grows, so a lying prefix cannot size the allocation.
	if flags&flagCompressed == 0 {
		if body != 4*cnt {
			return fmt.Errorf("%w: raw chunk of %d rows carries %d bytes", ErrCorrupt, cnt, body)
		}
		dst := d.grow(col, cnt)
		raw, err := d.readInto(dst)
		if err != nil {
			return err
		}
		if crc32.Update(crc, castagnoli, raw) != want {
			return fmt.Errorf("%w: column %d chunk CRC mismatch", ErrCorrupt, col)
		}
		d.fixByteOrder(dst, raw)
		return nil
	}

	payload, err := d.readScratch(body)
	if err != nil {
		return err
	}
	if crc32.Update(crc, castagnoli, payload) != want {
		return fmt.Errorf("%w: column %d chunk CRC mismatch", ErrCorrupt, col)
	}
	enc, err := compress.ParseEncoded(payload)
	if err != nil {
		return fmt.Errorf("%w: column %d chunk: %v", ErrCorrupt, col, err)
	}
	if enc.Len() != cnt {
		return fmt.Errorf("%w: compressed chunk decodes %d rows, prefix says %d",
			ErrCorrupt, enc.Len(), cnt)
	}
	if err := enc.DecompressRangeInto(d.grow(col, cnt), 0, cnt); err != nil {
		return fmt.Errorf("%w: column %d chunk: %v", ErrCorrupt, col, err)
	}
	d.out.Stats.CompressedFrames++
	d.out.Stats.CompressedBytes += int64(body)
	d.out.Stats.SavedBytes += int64(4*cnt - body)
	return nil
}

// grow extends column col by cnt rows and returns the extension.
// The caller has checked len+cnt <= Header.N, so capping the new
// capacity at N still leaves room.
func (d *decoder) grow(col, cnt int) []int32 {
	c := d.out.Cols[col]
	need := len(c) + cnt
	if cap(c) < need {
		nc := make([]int32, len(c), min(max(2*need, d.firstCap), d.out.Header.N))
		copy(nc, c)
		c = nc
	}
	c = c[:need]
	d.out.Cols[col] = c
	return c[need-cnt:]
}

// readInto fills dst's memory from the stream and returns the wire
// bytes that were read (for CRC): the slice memory itself on
// little-endian machines, scratch otherwise.
func (d *decoder) readInto(dst []int32) ([]byte, error) {
	if isLittle {
		b := int32Bytes(dst)
		if _, err := io.ReadFull(d.r, b); err != nil {
			return nil, fmt.Errorf("%w: truncated column payload", ErrCorrupt)
		}
		return b, nil
	}
	b, err := d.readScratch(4 * len(dst))
	if err != nil {
		return nil, err
	}
	return b, nil
}

// fixByteOrder decodes raw wire bytes into dst on big-endian machines
// (no-op on little-endian, where dst and raw share memory).
func (d *decoder) fixByteOrder(dst []int32, raw []byte) {
	if isLittle {
		return
	}
	for i := range dst {
		dst[i] = int32(binary.LittleEndian.Uint32(raw[i*4:]))
	}
}

// readScratch reads n bytes into the decoder's reusable scratch.
func (d *decoder) readScratch(n int) ([]byte, error) {
	if cap(d.scratch) < n {
		d.scratch = make([]byte, n)
	}
	b := d.scratch[:n]
	if _, err := io.ReadFull(d.r, b); err != nil {
		return nil, fmt.Errorf("%w: truncated frame payload", ErrCorrupt)
	}
	return b, nil
}
