// Package wire is the binary columnar result encoding of the query
// service: the network half of the paper's "respect the bus"
// discipline. The NDJSON path re-encodes every result int32 as
// decimal text, row by row, allocating a fresh row slice per value —
// it spends both CPU and memory bandwidth re-materialising data the
// engine already holds as contiguous little-endian column arrays.
// This package instead moves those arrays as raw words: a result
// streams as a self-describing sequence of CRC-framed column chunks
// whose payloads are the column memory itself (reinterpreted, not
// re-encoded), optionally block-compressed with internal/compress so
// wire bytes shrink the same way bus bytes do.
//
// # Stream layout
//
// A stream is one header frame, any number of column-chunk frames,
// and one footer frame. Every frame wears the same 10-byte envelope:
//
//	offset size
//	0      1    frame type: 'H' header, 'C' column chunk, 'F' footer
//	1      1    flags: bit 0 = payload is block-compressed
//	2      4    payload byte length (uint32 LE)
//	6      4    CRC-32C over bytes 0..5 of the envelope + the payload
//	10     ...  payload
//
// The CRC covers the envelope head as well as the payload, so a
// single corrupted byte anywhere in a frame — type, flags, length or
// data — fails verification; the checksum field itself is the only
// uncovered region, and corrupting it also fails the compare.
//
// Header frame payload: the 4-byte magic "RDXC", a uint16 LE format
// version, then the JSON-encoded Header — the same document the
// NDJSON leg sends as its first line, which is what makes the stream
// self-describing (column names, result cardinality, plan).
//
// Column-chunk frame payload:
//
//	offset size
//	0      2    column index (uint16 LE)
//	2      2    reserved, zero
//	4      4    first row of the chunk (uint32 LE)
//	8      4    row count (uint32 LE)
//	12     ...  values: rowCount int32 words (LE) raw, or an
//	            internal/compress block stream when flag bit 0 is set
//
// Chunks of one column arrive in row order (each chunk's first row is
// the rows delivered so far); chunks of different columns interleave
// freely, so a writer can emit row bands column by column and flush
// between bands.
//
// Footer frame payload: the JSON-encoded Footer — the full Timing
// breakdown in milliseconds, rows streamed — again byte-for-byte the
// NDJSON footer document.
package wire

import (
	"hash/crc32"
	"unsafe"
)

// ContentType is the media type a client puts in its Accept header to
// negotiate this encoding (and the Content-Type of the response).
const ContentType = "application/x-radix-columnar"

// Version is the format version carried in the header frame. Decoders
// reject streams from a newer major format.
const Version = 1

const (
	frameHeader byte = 'H'
	frameColumn byte = 'C'
	frameFooter byte = 'F'

	flagCompressed byte = 1 << 0

	envelopeBytes     = 10
	columnPrefixBytes = 12

	// maxFrameBytes bounds a single frame's declared payload so a
	// corrupt or adversarial length field cannot balloon a decoder
	// allocation. 256 MiB holds a 64M-value column chunk — far past
	// anything a row-banded writer emits.
	maxFrameBytes = 1 << 28
)

// magic opens the header frame payload.
var magic = [4]byte{'R', 'D', 'X', 'C'}

// castagnoli is the CRC-32C table (hardware-accelerated on amd64 and
// arm64 — the checksum must not cost the bandwidth it protects).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Header is the stream's opening document. Its JSON shape is shared
// with the NDJSON leg's first line — one schema, two encodings.
type Header struct {
	N          int      `json:"n"`
	Names      []string `json:"names"`
	Plan       string   `json:"plan"`
	Workers    int      `json:"workers"`
	Compressed bool     `json:"compressed"`
}

// Timing is the query's phase breakdown flattened to milliseconds.
type Timing struct {
	ScanMs           float64 `json:"scanMs"`
	JoinMs           float64 `json:"joinMs"`
	ReorderJIMs      float64 `json:"reorderJIMs"`
	ProjectLargerMs  float64 `json:"projectLargerMs"`
	ProjectSmallerMs float64 `json:"projectSmallerMs"`
	DeclusterMs      float64 `json:"declusterMs"`
	QueueMs          float64 `json:"queueMs"`
	TotalMs          float64 `json:"totalMs"`
}

// Footer is the stream's closing document, shared with the NDJSON
// leg's last line.
type Footer struct {
	RowsStreamed int    `json:"rowsStreamed"`
	Timing       Timing `json:"timing"`
	// Deprecated: SharedScanHits is always 0 (scan sharing was removed);
	// it stays because benchmark/client.go strict-decodes and reads it.
	SharedScanHits int64 `json:"sharedScanHits"`
	TraceSpans     int   `json:"traceSpans,omitempty"`
}

// Compression selects the writer's per-frame compression policy.
type Compression int

const (
	// CompressOff sends every column chunk as raw little-endian words
	// — the zero-copy path.
	CompressOff Compression = iota
	// CompressAuto prices both block schemes per chunk (one min/max
	// sweep each, no trial encode) and compresses when the encoded
	// frame would be at least one eighth smaller than raw; chunks that
	// would not pay for their decode stay raw.
	CompressAuto
)

// minCompressValues is the smallest chunk CompressAuto considers:
// below one compression block the header overhead dominates.
const minCompressValues = 256

// Stats counts what moved over a Writer or through a Decoder.
type Stats struct {
	// Frames and Bytes count every frame (header and footer included)
	// and every byte, envelopes included.
	Frames int64
	Bytes  int64
	// CompressedFrames / CompressedBytes count the column chunks that
	// went block-compressed and their encoded payload bytes;
	// SavedBytes is the raw bytes those payloads replaced minus their
	// encoded size — wire traffic avoided.
	CompressedFrames int64
	CompressedBytes  int64
	SavedBytes       int64
}

// isLittle reports the native byte order. Every supported Go target
// this repository runs on is little-endian, so the reinterpret fast
// path is the norm; the big-endian fallback copies through scratch.
var isLittle = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// int32Bytes reinterprets vals as its backing bytes without copying.
// Only meaningful as wire data on a little-endian machine — callers
// branch on isLittle.
func int32Bytes(vals []int32) []byte {
	if len(vals) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&vals[0])), 4*len(vals))
}
