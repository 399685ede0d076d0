package exec

// Scan sharing: cooperative (circular) scans on the shared Runtime.
//
// Concurrent pipelines routinely declare PhaseScan work over the same
// base data — two queries key-extracting from one NSM relation, or
// stitching wide tuples out of one DSM side. The fair morsel queue
// interleaves their independent passes, so the same bytes stream over
// the memory bus once per query: exactly the bus-saturation effect
// costmodel.ParallelNanos penalizes. Scan sharing removes the
// duplicate traffic the way cooperative scans (MonetDB/X100) and
// circular scans (SQL Server) do:
//
//   - A scan's identity is its ScanKey — the backing array of the data
//     being swept plus its cardinality. Pipelines attach to the
//     runtime's scan registry as consumers.
//   - One circular pass ("wheel") runs per live key. Each serve claims
//     the next chunk position and applies EVERY attached consumer's
//     chunk body back to back on the same worker, so the chunk is read
//     from RAM once and the remaining consumers find it hot in cache.
//   - A consumer attaching mid-pass starts at the wheel's current
//     position and wraps: it needs exactly len(chunks) consecutive
//     serves, whichever chunk the wheel is on. Chunk-order independence
//     is already required of every ForRanges body (disjoint writes
//     derivable from the range), so the output bytes are identical to
//     an unshared run.
//
// Serving capacity comes from the consumers themselves: each attach
// submits one job of len(chunks) "serve tokens" to the ordinary
// morsel queue. A token advances the wheel by one serve, or no-ops
// when the pass has already covered every attached consumer (tokens
// are always sufficient: a consumer attaches at wheel <= tokens
// submitted so far, and brings len(chunks) more). Tokens run under the
// consumer's own lease, so admission control, fair scheduling and
// queue-wait accounting all apply unchanged.

import (
	"reflect"
	"sync"
	"sync/atomic"
	"time"

	"radixdecluster/internal/compress"
)

// scanChunkItems sizes shared-scan chunks: small enough that one
// chunk's source bytes stay cache-resident while the co-attached
// consumers re-read it (8K records of a 16-field NSM relation is
// 512KB, the paper's L2), large enough that per-serve bookkeeping is
// negligible.
const scanChunkItems = 8 << 10

// ScanKey is the stable identity of a shareable scan source: the
// backing array of the data being swept, its cardinality and a kind
// tag. Two pipelines whose scans carry equal keys read the same base
// data over the same [0,n) item space and may be served by one pass.
// The zero ScanKey marks "not shareable".
type ScanKey struct {
	base uintptr
	n    int
	kind uint8
}

const (
	scanKindRows uint8 = iota + 1
	scanKindColumn
	scanKindEnc
)

// RowsScanKey identifies a scan over the records of a row-major
// relation by its backing data array. Every scan-shaped operator over
// the same records — key extraction of any attribute, projection
// scans of any attribute list — shares the key, so they can share the
// pass.
func RowsScanKey(data []int32, n int) ScanKey {
	if len(data) == 0 || n <= 0 {
		return ScanKey{}
	}
	return ScanKey{base: reflect.ValueOf(data).Pointer(), n: n, kind: scanKindRows}
}

// ColumnScanKey identifies a column-driven scan (e.g. a DSM side's
// wide-tuple stitch swept in step with its key column) by the key
// column's backing array.
func ColumnScanKey(col []int32, n int) ScanKey {
	if len(col) == 0 || n <= 0 {
		return ScanKey{}
	}
	return ScanKey{base: reflect.ValueOf(col).Pointer(), n: n, kind: scanKindColumn}
}

// EncScanKey identifies a scan-shaped pass over a block-compressed
// column or image by its encoded byte stream, so concurrent pipelines
// decompressing the same source over the same item space are served by
// one circular pass — compressed chunks cross the bus once per circle.
func EncScanKey(enc *compress.Encoded, n int) ScanKey {
	if enc == nil || enc.CompressedBytes() == 0 || n <= 0 {
		return ScanKey{}
	}
	return ScanKey{base: reflect.ValueOf(enc.Bytes()).Pointer(), n: n, kind: scanKindEnc}
}

// sharedScan is one live circular pass. All fields are guarded by the
// owning registry's mutex: serves hold it only to claim a position and
// to retire; the chunk bodies run outside it.
type sharedScan struct {
	key    ScanKey
	chunks []Range

	wheel     int64 // next serve position (monotonic, not wrapped)
	maxServe  int64 // first position no attached consumer needs
	consumers []*scanConsumer
}

// scanConsumer is one pipeline attached to a pass. Its window is the
// len(chunks) consecutive serves starting at the wheel position it
// attached at; serve t applies chunk t % len(chunks).
type scanConsumer struct {
	body  func(Range) error
	start int64 // wheel position at attach
	left  int   // serves in the window not yet finished
	err   error
	done  chan struct{}
}

// scanRegistry keys the live passes. One per Runtime.
type scanRegistry struct {
	mu    sync.Mutex
	scans map[ScanKey]*sharedScan
	hits  atomic.Int64 // attaches that joined a pass already in progress
}

// attach joins (or starts) the pass for key and reports whether
// another consumer was already being served — a shared-scan hit.
func (g *scanRegistry) attach(key ScanKey, n int, body func(Range) error) (*sharedScan, *scanConsumer, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.scans == nil {
		g.scans = make(map[ScanKey]*sharedScan)
	}
	sc := g.scans[key]
	if sc == nil {
		nchunks := (n + scanChunkItems - 1) / scanChunkItems
		if nchunks < 1 {
			nchunks = 1
		}
		sc = &sharedScan{key: key, chunks: Chunks(n, nchunks)}
		g.scans[key] = sc
	}
	hit := len(sc.consumers) > 0
	if hit {
		g.hits.Add(1)
	}
	c := &scanConsumer{body: body, start: sc.wheel, left: len(sc.chunks), done: make(chan struct{})}
	sc.consumers = append(sc.consumers, c)
	if end := c.start + int64(len(sc.chunks)); end > sc.maxServe {
		sc.maxServe = end
	}
	return sc, c, hit
}

// serve runs one wheel advance of sc: claim the next position, apply
// every attached consumer whose window contains it, retire consumers
// whose windows complete. No-op once the pass has covered every
// attached consumer. Safe to call from any number of workers.
func (g *scanRegistry) serve(sc *sharedScan) {
	g.mu.Lock()
	if sc.wheel >= sc.maxServe {
		g.mu.Unlock()
		return
	}
	t := sc.wheel
	sc.wheel++
	chunk := sc.chunks[int(t%int64(len(sc.chunks)))]
	span := int64(len(sc.chunks))
	run := make([]*scanConsumer, 0, len(sc.consumers))
	for _, c := range sc.consumers {
		if c.start <= t && t < c.start+span {
			run = append(run, c)
		}
	}
	g.mu.Unlock()

	for _, c := range run {
		err := c.body(chunk)
		g.mu.Lock()
		if err != nil && c.err == nil {
			c.err = err
		}
		c.left--
		finished := c.left == 0
		if finished {
			for i, o := range sc.consumers {
				if o == c {
					sc.consumers = append(sc.consumers[:i], sc.consumers[i+1:]...)
					break
				}
			}
			if len(sc.consumers) == 0 && g.scans[sc.key] == sc {
				delete(g.scans, sc.key)
			}
		}
		g.mu.Unlock()
		if finished {
			close(c.done)
		}
	}
}

// Seed returns the placement-hash salt of this scan source: every
// consumer of one key submits its serve tokens under the same seed, so
// token i of every attached pipeline homes on the same worker — the
// wheel's chunk service stays on a stable worker set across queries,
// and the chunk buffers it faults in are first-touched where they are
// re-read.
func (k ScanKey) Seed() uint64 {
	return mix64(uint64(k.base) ^ uint64(k.n)<<8 ^ uint64(k.kind)<<56)
}

// sharedScan routes one declared scan of this engine through the
// runtime's registry: attach as a consumer, contribute len(chunks)
// serve tokens under the engine's lease, wait until every chunk has
// been applied to the consumer (possibly by other pipelines' tokens).
func (e *Engine) sharedScan(key ScanKey, n int, body func(Range) error) error {
	e.admit() // admission first, exactly like any other job
	sc, c, hit := e.rt.scanReg.attach(key, n, body)
	if hit {
		e.sharedHits.Add(1)
		e.trace.Instant("shared-scan hit", "scan", tracePipelineTID, time.Now(),
			map[string]int64{"chunks": int64(len(sc.chunks))})
	}
	e.runSeeded(len(sc.chunks), key.Seed(), nil, func(_, _ int, _ *Scratch) { e.rt.scanReg.serve(sc) })
	// Our tokens have run, so every serve in c's window is claimed;
	// stragglers claimed by other pipelines' tokens finish on their
	// workers momentarily.
	<-c.done
	return c.err
}

// SharedScanHits returns the number of scan attachments that joined a
// pass another pipeline had already started — base-data sweeps served
// without paying their own memory traffic.
func (rt *Runtime) SharedScanHits() int64 { return rt.scanReg.hits.Load() }

// ShareScans reports whether this runtime coalesces same-source scans.
func (rt *Runtime) ShareScans() bool { return rt.shareScans }
