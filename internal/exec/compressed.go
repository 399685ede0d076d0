package exec

// Compressed execution reads block-compressed encodings in this file
// only: every other operator takes raw []int32 / *nsm.Relation operands.
// The operators over join images read them, raw or compressed:
// ProjectImages, the one-pass u/u post-projection that probes and
// fetches each radix partition in one morsel, and FetchImage, the fetch
// it falls back to when the join is not key-FK. Per partition each
// decodes an encoded column's image range into the worker's scratch and
// gathers the partition's matches from there — or, for a larger
// partition matched exactly once, decodes it straight into the result —
// so a compressed plan decodes where it fetches and leases no decoded
// column. The decoded values are the raw ones, so a compressed run is
// byte-identical to the raw run of the same plan.

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"radixdecluster/internal/compress"
	"radixdecluster/internal/join"
	"radixdecluster/internal/mempool"
	"radixdecluster/internal/posjoin"
)

// CompStats counts a pipeline's compressed execution: how many encoded
// columns its image fetches decoded (each counted once per fetch),
// the encoded bytes the decode loops read (a block an image fetch
// decodes for two partitions counts twice), the raw bytes that traffic
// replaced (SavedBytes = decoded - encoded, accumulated per decoded
// span — bus traffic avoided, not storage), and the time spent inside
// block-decode loops, summed over the workers' decode loops (on a
// parallel run it may exceed the wall time it adds).
type CompStats struct {
	Cols            int64
	CompressedBytes int64
	SavedBytes      int64
	DecodeNanos     int64
}

// DecodeTime returns the decode time, summed over the workers' decode
// loops, as a duration.
func (a CompStats) DecodeTime() time.Duration { return time.Duration(a.DecodeNanos) }

// compCounters is the engine-side accumulator behind CompStats;
// workers update it with atomics from morsel bodies.
type compCounters struct {
	cols            atomic.Int64
	compressedBytes atomic.Int64
	savedBytes      atomic.Int64
	decodeNanos     atomic.Int64
}

func (c *compCounters) snapshot() CompStats {
	return CompStats{
		Cols:            c.cols.Load(),
		CompressedBytes: c.compressedBytes.Load(),
		SavedBytes:      c.savedBytes.Load(),
		DecodeNanos:     c.decodeNanos.Load(),
	}
}

// decode decodes values [lo,hi) of enc into dst[:hi-lo] and accounts
// the span: its decode time, the encoded bytes of the touched blocks
// and the raw bytes that read replaced.
func (c *compCounters) decode(dst []int32, enc *compress.Encoded, lo, hi int) error {
	if hi <= lo {
		return nil
	}
	t := time.Now()
	if err := enc.DecompressRangeInto(dst, lo, hi); err != nil {
		return err
	}
	c.decodeNanos.Add(time.Since(t).Nanoseconds())
	b0, b1 := lo/compress.BlockSize, (hi+compress.BlockSize-1)/compress.BlockSize
	comp, raw := 0, 0
	for b := b0; b < b1; b++ {
		comp += enc.BlockBytes(b)
		raw += 4 * enc.BlockLen(b)
	}
	c.compressedBytes.Add(int64(comp))
	c.savedBytes.Add(int64(raw - comp))
	return nil
}

// FetchImage is the Positional-Join over one side of a join image, one
// radix partition per morsel: pos are image positions, and partition
// p's matches pos[parts[p]:parts[p+1]] lie in its image range
// [offs[p], offs[p+1]) (join.Index.Parts, join.Image.Offsets). Per
// column the morsel takes that range — decoded from encs[c] into the
// worker's scratch where the column is encoded, else cols[c]'s own
// values — and gathers the partition's matches from it (fetchRange). A
// partition without matches decodes nothing; a block straddling two
// partitions is decoded, and counted, by each. Morsels home on the
// worker that probed the partition (partitionAff). The bytes are posjoin.FetchInto's over
// the decoded columns on every engine, and an error is the serial
// loop's: the first in partition, then column, order. The columns are
// result arrays (Engine.Own).
func (e *Engine) FetchImage(cols [][]int32, encs []*compress.Encoded, offs, parts []int, pos []OID) ([][]int32, error) {
	h := len(offs) - 1
	if h < 0 || len(parts) != len(offs) || parts[0] != 0 || parts[h] != len(pos) || offs[0] != 0 {
		return nil, fmt.Errorf("exec: image fetch: %d partition offsets and %d match offsets over %d positions",
			len(offs), len(parts), len(pos))
	}
	for p := range h {
		if offs[p] > offs[p+1] || parts[p] > parts[p+1] {
			return nil, fmt.Errorf("exec: image fetch: partition %d: offsets descend", p)
		}
	}
	encoded, err := checkImageCols("image fetch", cols, encs, offs[h])
	if err != nil {
		return nil, err
	}
	e.comp.cols.Add(int64(encoded))

	out := make([][]int32, len(cols))
	for c := range out {
		out[c] = e.Own(len(pos))
	}
	var s *Scratch
	if e.serial(len(pos)) {
		// One scratch as wide as the widest partition serves them all.
		s = &Scratch{}
		if encoded > 0 {
			s.vals = mempool.Slice[int32](e.mem(), widest(offs))
		}
	}
	// The lowest failing partition's error is kept — no per-partition
	// error slots.
	var (
		mu    sync.Mutex
		errPt = h
		ferr  error
	)
	e.eachPartition(h, s, func(p int, s *Scratch) {
		lo, hi, a, b := offs[p], offs[p+1], parts[p], parts[p+1]
		if a == b {
			return
		}
		for c, col := range cols {
			if err := e.fetchRange(out[c][a:b], col, encAt(encs, c), lo, hi, pos[a:b], s); err != nil {
				mu.Lock()
				if p < errPt {
					errPt, ferr = p, fmt.Errorf("partition %d, column %d: %w", p, c, err)
				}
				mu.Unlock()
				return
			}
		}
	})
	if ferr != nil {
		return nil, ferr
	}
	return out, nil
}

// fetchRange gathers pos, image positions in [lo,hi), into dst from
// col's values there — or, where the column is encoded in enc, from
// those values decoded into s's scratch.
func (e *Engine) fetchRange(dst, col []int32, enc *compress.Encoded, lo, hi int, pos []OID, s *Scratch) error {
	if enc == nil {
		return posjoin.FetchWindowInto(dst, col[lo:hi], OID(lo), pos)
	}
	src := s.Int32s(hi - lo)
	if err := e.comp.decode(src, enc, lo, hi); err != nil {
		return err
	}
	return posjoin.FetchWindowInto(dst, src, OID(lo), pos)
}

// fetchRanges is fetchRange over every column of one side, writing
// column c's values at dsts[c][at:at+len(pos)]: raw columns gather two at
// a time (posjoin.FetchWindowPairInto, one pass over pos per pair),
// encoded ones and an odd raw one alone.
func (e *Engine) fetchRanges(dsts [][]int32, at int, cols [][]int32, encs []*compress.Encoded, lo, hi int, pos []OID, s *Scratch) error {
	end := at + len(pos)
	held := -1 // a raw column waiting for its pair
	for c, col := range cols {
		if enc := encAt(encs, c); enc != nil {
			if err := e.fetchRange(dsts[c][at:end], nil, enc, lo, hi, pos, s); err != nil {
				return err
			}
			continue
		}
		if held < 0 {
			held = c
			continue
		}
		if err := posjoin.FetchWindowPairInto(dsts[held][at:end], dsts[c][at:end], cols[held][lo:hi], col[lo:hi], OID(lo), pos); err != nil {
			return err
		}
		held = -1
	}
	if held >= 0 {
		return posjoin.FetchWindowInto(dsts[held][at:end], cols[held][lo:hi], OID(lo), pos)
	}
	return nil
}

// Image is one side of a join over join images as the engine reads it:
// the clustered join input and the projection columns in the same
// order, each raw in Cols or encoded in ColsEnc with its Cols entry nil.
type Image struct {
	join.Image
	Cols    [][]int32
	ColsEnc []*compress.Encoded
}

// ImageProjection is ProjectImages' result: the cardinality and each
// side's result arrays (Engine.Own) — except where Views[c] is set:
// Larger[c] is then the larger image's column itself, cut to [:N:N], a
// read-only view that no holder may write or hand to an arena.
type ImageProjection struct {
	N               int
	Larger, Smaller [][]int32
	Views           []bool
}

// ProjectImages is the u/u DSM post-projection over two join images in
// one pass, one morsel per radix partition homed by partitionAff. Each
// morsel probes its partition pair and, while the match list is in the
// worker's caches, checks whether the larger matches are the
// partition's image range in order (key-FK). Over a Distinct smaller
// image the probe is join.ProbeFirst (probeFirst): one smaller position
// per larger tuple, and the partition is key-FK when every probe
// matched — its larger positions, the image range, are then never
// written. Otherwise join.ProbeImage emits the match list, checked
// match by match. A key-FK partition's result rows are written in place
// at that range: smaller columns gathered from the partition's image
// range (fetchRanges), encoded larger columns decoded straight into the
// result. When every partition was key-FK, each raw larger column is
// the image column itself (Views), neither copied nor leased. The first
// partition that is not (or a decode error) stops the in-place writes,
// and the query finishes with the stitched join-index and two
// FetchImage passes. The bytes and the error are those of FetchImage
// over the join-index of join.PartitionedImagesInto either way. The
// in-morsel fetch times apportion the pass's wall time to
// PhaseProjectLarger and PhaseProjectSmaller (attribute); the probe's
// share stays with the calling phase's kind.
func (e *Engine) ProjectImages(larger, smaller *Image, shift uint) (ImageProjection, error) {
	lOffs, sOffs := larger.Offsets, smaller.Offsets
	if len(lOffs) != len(sOffs) || len(lOffs) == 0 {
		return ImageProjection{}, fmt.Errorf("exec: image projection: partition counts differ: %d vs %d", len(lOffs)-1, len(sOffs)-1)
	}
	h, n := len(lOffs)-1, lOffs[len(lOffs)-1]
	lEnc, err := checkImageCols("image projection", larger.Cols, larger.ColsEnc, n)
	if err != nil {
		return ImageProjection{}, err
	}
	sEnc, err := checkImageCols("image projection", smaller.Cols, smaller.ColsEnc, sOffs[h])
	if err != nil {
		return ImageProjection{}, err
	}

	// The result arrays of the in-place writes: every smaller column and
	// every encoded larger column, N = n rows when every partition is
	// dense. A raw larger column needs none.
	res := ImageProjection{N: n, Larger: make([][]int32, len(larger.Cols)), Smaller: make([][]int32, len(smaller.Cols))}
	for c := range res.Larger {
		if encAt(larger.ColsEnc, c) != nil {
			res.Larger[c] = e.Own(n)
		}
	}
	for c := range res.Smaller {
		res.Smaller[c] = e.Own(n)
	}
	var s *Scratch
	if e.serial(n + sOffs[h]) {
		// A serial run probes every partition in one leased table and
		// decodes into one leased scratch, each as wide as the widest.
		ts, first, next := e.leasedTable(sOffs)
		s = &Scratch{tjoin: ts}
		if sEnc > 0 {
			s.vals = mempool.Slice[int32](e.mem(), widest(sOffs))
		}
		defer Return(e, first, next, s.vals)
	}

	var (
		sparse                       atomic.Bool
		probeNs, largerNs, smallerNs atomic.Int64
	)
	probe := func(pt int, out *join.Index, ts *join.TableScratch) {
		t := time.Now()
		if smaller.Distinct {
			probeFirst(&larger.Image, &smaller.Image, pt, shift, out, ts)
		} else {
			join.ProbeImage(&larger.Image, &smaller.Image, pt, shift, out, ts)
		}
		probeNs.Add(int64(time.Since(t)))
	}
	then := func(pt int, part join.Index, s *Scratch) {
		ll, lh := lOffs[pt], lOffs[pt+1]
		if ll == lh || sparse.Load() {
			return
		}
		// The key-FK test is the probe's: a raw larger side fetches
		// nothing. Past a distinct smaller side the hit count decides
		// it, and never reads the unwritten larger positions.
		t0 := time.Now()
		ok := smaller.Distinct && len(part.Larger) == lh-ll || identity(part.Larger, ll, lh)
		t1 := time.Now()
		for c, enc := range larger.ColsEnc {
			ok = ok && (enc == nil || e.comp.decode(res.Larger[c][ll:lh], enc, ll, lh) == nil)
		}
		t2 := time.Now()
		ok = ok && e.fetchRanges(res.Smaller, ll, smaller.Cols, smaller.ColsEnc, sOffs[pt], sOffs[pt+1], part.Smaller, s) == nil
		probeNs.Add(int64(t1.Sub(t0)))
		largerNs.Add(int64(t2.Sub(t1)))
		smallerNs.Add(int64(time.Since(t2)))
		if !ok {
			sparse.Store(true)
		}
	}
	start := time.Now()
	lists := e.probeEach(lOffs, s, probe, then)
	if sum := float64(probeNs.Load() + largerNs.Load() + smallerNs.Load()); sum > 0 {
		wall := float64(time.Since(start))
		e.attribute(PhaseProjectLarger, time.Duration(wall*float64(largerNs.Load())/sum))
		e.attribute(PhaseProjectSmaller, time.Duration(wall*float64(smallerNs.Load())/sum))
	}

	if !sparse.Load() {
		Return(e, lists.larger, lists.smaller)
		Return(e, lists.counts)
		res.Views = make([]bool, len(larger.Cols))
		for c, col := range larger.Cols {
			if encAt(larger.ColsEnc, c) == nil {
				res.Larger[c], res.Views[c] = col[:n:n], true
			}
		}
		e.comp.cols.Add(int64(lEnc + sEnc))
		return res, nil
	}

	// Not every larger partition was matched exactly once: the in-place
	// rows are void, and each side is fetched from the stitched
	// join-index — after the larger positions the first-match probes left
	// unwritten, those of the key-FK partitions, are written.
	home := e.Home()
	for _, col := range slices.Concat(res.Larger, res.Smaller) {
		mempool.Recycle(home, col)
	}
	if smaller.Distinct {
		e.eachPartition(h, s, func(pt int, _ *Scratch) {
			ll, lh := lOffs[pt], lOffs[pt+1]
			if lists.counts[pt] == lh-ll {
				for i := ll; i < lh; i++ {
					lists.larger[i] = OID(i)
				}
			}
		})
	}
	ix, parts := e.stitch(lOffs, lists, s)
	out := ImageProjection{N: ix.Len()}
	t := time.Now()
	out.Larger, err = e.FetchImage(larger.Cols, larger.ColsEnc, lOffs, parts, ix.Larger)
	Return(e, ix.Larger)
	e.attribute(PhaseProjectLarger, time.Since(t))
	if err == nil {
		t = time.Now()
		out.Smaller, err = e.FetchImage(smaller.Cols, smaller.ColsEnc, sOffs, parts, ix.Smaller)
		e.attribute(PhaseProjectSmaller, time.Since(t))
	}
	Return(e, ix.Smaller)
	Return(e, parts)
	if err != nil {
		return ImageProjection{}, err
	}
	return out, nil
}

// probeFirst probes partition pt of two images whose smaller side is
// Distinct into out, a carving of the join-index with room for one match
// per larger tuple: join.ProbeFirst writes the smaller positions into
// out.Smaller's slots. A key-FK partition — every probe matched — keeps
// them as they are and leaves out.Larger's positions, the partition's
// image range, unwritten, with out at the full length; any other one is
// compacted (join.CompactFirst) into the match list join.ProbeImage
// emits.
func probeFirst(larger, smaller *join.Image, pt int, shift uint, out *join.Index, ts *join.TableScratch) {
	ll, lh := larger.Offsets[pt], larger.Offsets[pt+1]
	sl, sh := smaller.Offsets[pt], smaller.Offsets[pt+1]
	if ll == lh || sl == sh {
		return
	}
	k := lh - ll
	slots := out.Smaller[:k]
	hits := join.ProbeFirst(smaller.Hashes[sl:sh], larger.Hashes[ll:lh], sl, shift, slots, ts)
	if hits < k {
		hits = join.CompactFirst(slots, out.Larger[:k], ll)
	}
	out.Larger, out.Smaller = out.Larger[:hits], slots[:hits]
}

// checkImageCols checks that every column of an image side holds n
// values, raw or encoded, and counts the encoded ones.
func checkImageCols(op string, cols [][]int32, encs []*compress.Encoded, n int) (encoded int, err error) {
	for c, col := range cols {
		m := len(col)
		if enc := encAt(encs, c); enc != nil {
			m = enc.Len()
			encoded++
		}
		if m != n {
			return 0, fmt.Errorf("exec: %s: column %d holds %d values, the image %d", op, c, m, n)
		}
	}
	return encoded, nil
}

// widest is the largest partition of offsets offs.
func widest(offs []int) int {
	w := 0
	for p := 0; p+1 < len(offs); p++ {
		w = max(w, offs[p+1]-offs[p])
	}
	return w
}

// identity reports whether pos is lo, lo+1, …, hi-1.
func identity(pos []OID, lo, hi int) bool {
	if len(pos) != hi-lo {
		return false
	}
	for i, o := range pos {
		if int(o) != lo+i {
			return false
		}
	}
	return true
}

// encAt is encs[c], nil past its end.
func encAt(encs []*compress.Encoded, c int) *compress.Encoded {
	if c < len(encs) {
		return encs[c]
	}
	return nil
}
