package wire

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"

	"radixdecluster/internal/compress"
	"radixdecluster/internal/mempool"
)

// Writer streams one result as a binary columnar frame sequence:
// WriteHeader once, WriteColumn per column chunk, WriteFooter once.
// Raw column chunks are written straight from the caller's []int32
// memory (reinterpreted, never copied into an intermediate buffer);
// compressed chunks encode into scratch leased from the writer's
// mempool lease, so a serving daemon's steady-state encode path
// allocates nothing once warm. Not safe for concurrent use.
type Writer struct {
	w     io.Writer
	lease *mempool.Lease // may be nil: scratch falls back to make
	comp  Compression

	// env holds the frame envelope and the column prefix back to back
	// so both land in one Write.
	env     [envelopeBytes + columnPrefixBytes]byte
	scratch []byte // leased compression scratch, grown on demand

	ncols       int
	wroteHeader bool
	st          Stats
}

// NewWriter wraps w. lease supplies encode scratch for compressed
// frames (nil falls back to the garbage collector); comp sets the
// per-frame compression policy.
func NewWriter(w io.Writer, lease *mempool.Lease, comp Compression) *Writer {
	return &Writer{w: w, lease: lease, comp: comp}
}

// Stats reports what has been written so far.
func (w *Writer) Stats() Stats { return w.st }

// writeFrame emits one frame: envelope (with CRC over its head and
// every payload part) followed by the parts. A payload past
// maxFrameBytes is refused: Decode would reject it, and past 4 GiB
// its uint32 length field would wrap.
func (w *Writer) writeFrame(typ, flags byte, headLen int, body []byte) error {
	if n := headLen + len(body); n > maxFrameBytes {
		return fmt.Errorf("wire: frame payload of %d bytes exceeds the %d-byte limit", n, maxFrameBytes)
	}
	head := w.env[:envelopeBytes+headLen]
	head[0] = typ
	head[1] = flags
	binary.LittleEndian.PutUint32(head[2:], uint32(headLen+len(body)))
	crc := crc32.Update(0, castagnoli, head[:6])
	crc = crc32.Update(crc, castagnoli, head[envelopeBytes:])
	crc = crc32.Update(crc, castagnoli, body)
	binary.LittleEndian.PutUint32(head[6:], crc)
	if _, err := w.w.Write(head); err != nil {
		return err
	}
	if len(body) > 0 {
		if _, err := w.w.Write(body); err != nil {
			return err
		}
	}
	w.st.Frames++
	w.st.Bytes += int64(len(head) + len(body))
	return nil
}

// WriteHeader opens the stream: magic, version, then the JSON header
// document. Must be called exactly once, first.
func (w *Writer) WriteHeader(h Header) error {
	if w.wroteHeader {
		return fmt.Errorf("wire: WriteHeader called twice")
	}
	meta, err := json.Marshal(h)
	if err != nil {
		return err
	}
	payload := make([]byte, 6+len(meta))
	copy(payload, magic[:])
	binary.LittleEndian.PutUint16(payload[4:], Version)
	copy(payload[6:], meta)
	if err := w.writeFrame(frameHeader, 0, 0, payload); err != nil {
		return err
	}
	w.ncols = len(h.Names)
	w.wroteHeader = true
	return nil
}

// WriteColumn emits one column chunk: values are rows
// [rowStart, rowStart+len(values)) of column col. Under CompressAuto
// the chunk is block-compressed when the encoded form is at least one
// eighth smaller than raw; otherwise the payload is the caller's
// slice memory written directly. A chunk whose frame payload would
// exceed the decoder's frame limit (256 MiB) is an error: band the
// column into smaller chunks.
func (w *Writer) WriteColumn(col, rowStart int, values []int32) error {
	if !w.wroteHeader {
		return fmt.Errorf("wire: WriteColumn before WriteHeader")
	}
	if col < 0 || col >= w.ncols {
		return fmt.Errorf("wire: column %d outside header's %d columns", col, w.ncols)
	}
	raw := 4 * len(values)
	body, flags := w.rawBody(values), byte(0)
	if w.comp == CompressAuto && len(values) >= minCompressValues {
		if enc, ok := w.compressBody(values, raw); ok {
			body, flags = enc, flagCompressed
		}
	}
	prefix := w.env[envelopeBytes:]
	binary.LittleEndian.PutUint16(prefix[0:], uint16(col))
	prefix[2], prefix[3] = 0, 0
	binary.LittleEndian.PutUint32(prefix[4:], uint32(rowStart))
	binary.LittleEndian.PutUint32(prefix[8:], uint32(len(values)))
	if err := w.writeFrame(frameColumn, flags, columnPrefixBytes, body); err != nil {
		return err
	}
	if flags&flagCompressed != 0 {
		w.st.CompressedFrames++
		w.st.CompressedBytes += int64(len(body))
		w.st.SavedBytes += int64(raw - len(body))
	}
	return nil
}

// rawBody returns values as little-endian wire bytes: a zero-copy
// reinterpret on little-endian machines, an explicit byte-order copy
// through leased scratch otherwise.
func (w *Writer) rawBody(values []int32) []byte {
	if isLittle {
		return int32Bytes(values)
	}
	buf := w.scratchFor(4 * len(values))[:4*len(values)]
	for i, v := range values {
		binary.LittleEndian.PutUint32(buf[i*4:], uint32(v))
	}
	return buf
}

// compressBody prices both block schemes with an allocation-free
// min/max sweep (compress.Best), and encodes (into leased scratch) only
// when the winner is at least one eighth smaller than raw.
func (w *Writer) compressBody(values []int32, raw int) ([]byte, bool) {
	scheme, est := compress.Best(values)
	if est >= raw-raw/8 {
		return nil, false
	}
	enc, err := compress.AppendCompress(w.scratchFor(est)[:0], values, scheme)
	if err != nil || len(enc) >= raw {
		return nil, false
	}
	return enc, true
}

// scratchFor returns the writer's reusable scratch buffer, grown (via
// the lease) to at least n bytes of capacity.
func (w *Writer) scratchFor(n int) []byte {
	if cap(w.scratch) < n {
		w.scratch = mempool.SliceCap[byte](w.lease, 0, n)
	}
	return w.scratch[:0]
}

// WriteFooter closes the stream with the JSON footer document.
func (w *Writer) WriteFooter(f Footer) error {
	if !w.wroteHeader {
		return fmt.Errorf("wire: WriteFooter before WriteHeader")
	}
	meta, err := json.Marshal(f)
	if err != nil {
		return err
	}
	return w.writeFrame(frameFooter, 0, 0, meta)
}
