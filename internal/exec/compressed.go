package exec

// Compressed execution reads and writes block-compressed encodings in
// this file only: every other operator takes raw []int32 / *nsm.Relation
// operands. BuildImage builds a relation's join image, its encodings
// included, and ProjectImages, the u/u post-projection over two join
// images, reads them, raw or compressed, one radix partition per
// morsel. Per partition it decodes an encoded column's image range
// into the worker's scratch and gathers the partition's matches from
// there — or, for a larger partition matched exactly once, decodes it
// straight into the result — so a compressed plan decodes where it
// fetches and leases no decoded column. The decoded values are the raw
// ones, so a compressed run is byte-identical to the raw run of the
// same plan.

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"radixdecluster/internal/compress"
	"radixdecluster/internal/join"
	"radixdecluster/internal/mempool"
	"radixdecluster/internal/posjoin"
	"radixdecluster/internal/radix"
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

// fetchRanges gathers pos, image positions in [lo,hi), from every
// column of one side into column c's dsts[c][at:at+len(pos)]: raw
// columns two at a time (posjoin.FetchWindowPairInto, one pass over pos
// per pair), an encoded one from its range decoded into s's scratch,
// and an odd raw one alone. Without positions it reads and decodes
// nothing. An error names its column.
func (e *Engine) fetchRanges(dsts [][]int32, at int, cols [][]int32, encs []*compress.Encoded, lo, hi int, pos []OID, s *Scratch) error {
	if len(pos) == 0 {
		return nil
	}
	end := at + len(pos)
	held := -1 // a raw column waiting for its pair
	for c, col := range cols {
		var err error
		switch enc := encAt(encs, c); {
		case enc != nil:
			src := s.Int32s(hi - lo)
			if err = e.comp.decode(src, enc, lo, hi); err == nil {
				err = posjoin.FetchWindowInto(dsts[c][at:end], src, OID(lo), pos)
			}
		case held < 0:
			held = c
		default:
			err = posjoin.FetchWindowPairInto(dsts[held][at:end], dsts[c][at:end], cols[held][lo:hi], col[lo:hi], OID(lo), pos)
			held = -1
		}
		if err != nil {
			return fmt.Errorf("column %d: %w", c, err)
		}
	}
	if held >= 0 {
		if err := posjoin.FetchWindowInto(dsts[held][at:end], cols[held][lo:hi], OID(lo), pos); err != nil {
			return fmt.Errorf("column %d: %w", held, err)
		}
	}
	return nil
}

// ImageCol is a column a join-image build writes in image order: its
// values in base order, and whether the build encodes the image-order
// copy (compress.EncodeBest) in place of keeping it.
type ImageCol struct {
	Vals   []int32
	Encode bool
}

// BuiltCol is one column of an ImageBuild: the image-order copy (Raw),
// or for an encoded column its encoding (Enc) — a copy that did not
// shrink comes as Raw with Enc nil — and when it was done.
type BuiltCol struct {
	Raw  []int32
	Enc  *compress.Encoded
	Done time.Time
}

// ImageBuild is what BuildImage built: the clustering, when it was asked
// for — key hashes, offsets and Distinct, done at Clustered — and the
// columns in the order asked.
type ImageBuild struct {
	join.Image
	Clustered time.Time
	Cols      []BuiltCol
}

// BuildImage builds a relation's join image of keys for radix field o —
// with cluster false only columns to add to an image built before — in
// three steps, each through run:
//
//  1. Cluster: radix.Cluster over radix.ImageKernels on split's chunks
//     and passes, so each chunk's count task histograms the key hashes
//     and its scatter task writes the hashes and every column in stable
//     order; a field wider than maxFirstPassBits is refined per
//     first-pass cluster. A column-only build recounts and scatters the
//     columns alone (carrying the hashes from pass to pass in leased
//     buffers when it takes more than one).
//  2. Distinct: one task per partition looks for two equal hashes
//     (join.DistinctHashes on the task's table scratch); once one is
//     found, the tasks still to run stop at once.
//  3. Encode: one task per column to encode runs compress.EncodeBest on
//     its image-order copy, which is leased and handed back — or, when
//     the encoding does not shrink it, kept raw.
//
// What it returns is GC-owned, since an image outlives the query; the
// rest is leased. A stable clustering places every tuple where any
// chunking and pass split would, so the bytes, and Distinct, are the
// same on every engine.
func (e *Engine) BuildImage(keys []int32, o radix.Opts, cluster bool, cols []ImageCol) (ImageBuild, error) {
	if err := o.Validate(); err != nil {
		return ImageBuild{}, err
	}
	n := len(keys)
	vals := make([][]int32, len(cols))
	for j, c := range cols {
		if len(c.Vals) != n {
			return ImageBuild{}, fmt.Errorf("exec: image build: column %d holds %d values, the keys %d", j, len(c.Vals), n)
		}
		vals[j] = c.Vals
	}
	nch, passes := e.split(n, o)
	var hs [2][]uint32
	if cluster || len(passes) > 1 {
		hs = imageBufs[uint32](e, n, passes, cluster)
	}
	bufs := make([][2][]int32, len(cols))
	for j, c := range cols {
		bufs[j] = imageBufs[int32](e, n, passes, !c.Encode)
	}
	count, scatter := radix.ImageKernels(keys, vals, hs, bufs)
	offsets := e.cluster(n, o, nch, passes, count, scatter)
	scattered := time.Now()
	r := radix.Result(passes)
	Return(e, hs[1-r])
	for _, b := range bufs {
		Return(e, b[1-r])
	}

	var b ImageBuild
	if cluster {
		b.Image = join.Image{Hashes: hs[r], Offsets: slices.Clone(offsets)}
		b.Distinct = e.distinct(&b.Image, uint(o.Ignore+o.Bits))
		b.Clustered = time.Now()
	} else {
		Return(e, hs[r])
	}
	Return(e, offsets)

	b.Cols = make([]BuiltCol, len(cols))
	var encode []int
	for j, c := range cols {
		if c.Encode {
			encode = append(encode, j)
			continue
		}
		b.Cols[j] = BuiltCol{Raw: bufs[j][r], Done: scattered}
	}
	errs := e.errSlots(len(encode))
	e.run(n*len(encode), len(encode), func(t int, _ *Scratch) {
		j := encode[t]
		enc, err := compress.EncodeBest(bufs[j][r])
		if errs[t] = err; err != nil {
			return
		}
		if enc.Ratio() < 1 {
			b.Cols[j].Enc = enc
		} else {
			b.Cols[j].Raw = slices.Clone(bufs[j][r])
		}
		b.Cols[j].Done = time.Now()
	})
	for _, j := range encode {
		Return(e, bufs[j][r])
	}
	if err := firstErr(errs); err != nil {
		return ImageBuild{}, err
	}
	return b, nil
}

// imageBufs makes the ping-pong buffers of an image build's column on
// passes: the one the last pass leaves the column in (radix.Result) is a
// make when the image keeps it (own), else leased like the other, which
// exists only for more than one pass.
func imageBufs[T any](e *Engine, n int, passes []int, own bool) [2][]T {
	r := radix.Result(passes)
	var buf [2][]T
	if own {
		buf[r] = make([]T, n)
	} else {
		buf[r] = mempool.Slice[T](e.mem(), n)
	}
	if len(passes) > 1 {
		buf[1-r] = mempool.Slice[T](e.mem(), n)
	}
	return buf
}

// distinct reports whether no two of img's hashes are equal, one task
// per partition (Image.Distinct).
func (e *Engine) distinct(img *join.Image, shift uint) bool {
	var dup atomic.Bool
	offs := img.Offsets
	e.run(len(img.Hashes), len(offs)-1, func(p int, s *Scratch) {
		part := img.Hashes[offs[p]:offs[p+1]]
		if !dup.Load() && !join.DistinctHashes(part, shift, s.table(len(part))) {
			dup.Store(true)
		}
	})
	return !dup.Load()
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

// ProjectImages is the u/u DSM post-projection over two join images,
// one morsel per radix partition (task p is partition p). Each morsel
// probes its partition pair and, while the match list is in the
// worker's caches, checks whether the larger matches are the
// partition's image range in order (key-FK). Over a Distinct smaller
// image the probe is join.ProbeFirst (probeFirst): one smaller position
// per larger tuple, and the partition is key-FK when every probe
// matched — its larger positions, the image range, are then never
// written. Otherwise join.ProbeImage emits the match list, checked
// match by match. A key-FK partition writes its rows once, at its image
// range: smaller columns gathered from the partition's image range
// (fetchRanges), encoded larger columns decoded straight into the
// result. When every partition is key-FK that is the whole query, and
// each raw larger column is the image column itself (Views), neither
// copied nor leased; otherwise imagePass.move places the rows. The
// bytes are posjoin.FetchInto's over join.PartitionedImagesInto's
// join-index and the decoded columns; an error is the lowest failing
// partition's, larger columns before smaller ones. The in-morsel fetch
// times apportion the wall time to PhaseProjectLarger and
// PhaseProjectSmaller (attribute); the probe's share stays with the
// calling phase's kind.
func (e *Engine) ProjectImages(larger, smaller *Image, shift uint) (ImageProjection, error) {
	lOffs, sOffs := larger.Offsets, smaller.Offsets
	if len(lOffs) != len(sOffs) || len(lOffs) == 0 {
		return ImageProjection{}, fmt.Errorf("exec: image projection: partition counts differ: %d vs %d", len(lOffs)-1, len(sOffs)-1)
	}
	h, n := len(lOffs)-1, lOffs[len(lOffs)-1]
	lEnc, lerr := checkImageCols(larger.Cols, larger.ColsEnc, n)
	sEnc, serr := checkImageCols(smaller.Cols, smaller.ColsEnc, sOffs[h])
	if err := cmp.Or(lerr, serr); err != nil {
		return ImageProjection{}, err
	}
	e.comp.cols.Add(int64(lEnc + sEnc))

	// The key-FK rows, at their larger image positions: each raw larger
	// column is the image column itself (Views), every other column a
	// result array.
	kfk := ImageProjection{N: n, Larger: make([][]int32, len(larger.Cols)), Smaller: make([][]int32, len(smaller.Cols)), Views: make([]bool, len(larger.Cols))}
	for c, col := range larger.Cols {
		if kfk.Views[c] = encAt(larger.ColsEnc, c) == nil; kfk.Views[c] {
			kfk.Larger[c] = col[:n:n]
		} else {
			kfk.Larger[c] = e.Own(n)
		}
	}
	for c := range kfk.Smaller {
		kfk.Smaller[c] = e.Own(n)
	}
	ip := &imagePass{e: e, larger: larger, smaller: smaller, shift: shift, kfk: kfk}
	start := time.Now()
	lists := e.probeEach(n+sOffs[h], lOffs, sOffs, ip.probe, ip.writeKeyFK)
	res := kfk
	if ip.moved.Load() {
		res = ip.move(n+sOffs[h], lists)
	}
	Return(e, lists.larger, lists.smaller)
	Return(e, lists.starts, lists.counts)
	if sum := float64(ip.probeNs.Load() + ip.largerNs.Load() + ip.smallerNs.Load()); sum > 0 {
		wall := float64(time.Since(start))
		e.attribute(PhaseProjectLarger, time.Duration(wall*float64(ip.largerNs.Load())/sum))
		e.attribute(PhaseProjectSmaller, time.Duration(wall*float64(ip.smallerNs.Load())/sum))
	}
	if ip.err != nil {
		return ImageProjection{}, ip.err
	}
	return res, nil
}

// imagePass is what the morsels of one ProjectImages call share.
type imagePass struct {
	e               *Engine
	larger, smaller *Image
	shift           uint
	kfk             ImageProjection // the key-FK partitions' rows
	moved           atomic.Bool     // a partition is not key-FK

	mu    sync.Mutex
	errPt int
	err   error // the lowest failing partition's

	probeNs, largerNs, smallerNs atomic.Int64
}

// probe fills out with partition pt's match list.
func (ip *imagePass) probe(pt int, out *join.Index, ts *join.TableScratch) {
	t := time.Now()
	if ip.smaller.Distinct {
		probeFirst(&ip.larger.Image, &ip.smaller.Image, pt, ip.shift, out, ts)
	} else {
		join.ProbeImage(&ip.larger.Image, &ip.smaller.Image, pt, ip.shift, out, ts)
	}
	ip.probeNs.Add(int64(time.Since(t)))
}

// keyFK is the probe's key-FK test: a raw larger side fetches nothing.
// Past a distinct smaller side the hit count decides it, and never
// reads the unwritten larger positions.
func (ip *imagePass) keyFK(pt int, part join.Index) bool {
	ll, lh := ip.larger.Offsets[pt], ip.larger.Offsets[pt+1]
	return ip.smaller.Distinct && part.Len() == lh-ll || identity(part.Larger, ll, lh)
}

// writeKeyFK follows partition pt's probe in its morsel: a key-FK
// partition writes its rows into kfk, any other writes nothing.
func (ip *imagePass) writeKeyFK(pt int, part join.Index, s *Scratch) {
	t0 := time.Now()
	fk := ip.keyFK(pt, part)
	t1 := time.Now()
	ip.probeNs.Add(int64(t1.Sub(t0)))
	if !fk {
		ip.moved.Store(true)
		return
	}
	ll, lh, sOffs := ip.larger.Offsets[pt], ip.larger.Offsets[pt+1], ip.smaller.Offsets
	for c, enc := range ip.larger.ColsEnc {
		if enc == nil {
			continue
		}
		if err := ip.e.comp.decode(ip.kfk.Larger[c][ll:lh], enc, ll, lh); err != nil {
			ip.fail(pt, "larger", fmt.Errorf("column %d: %w", c, err))
			return
		}
	}
	t2 := time.Now()
	if err := ip.e.fetchRanges(ip.kfk.Smaller, ll, ip.smaller.Cols, ip.smaller.ColsEnc, sOffs[pt], sOffs[pt+1], part.Smaller, s); err != nil {
		ip.fail(pt, "smaller", err)
	}
	ip.largerNs.Add(int64(t2.Sub(t1)))
	ip.smallerNs.Add(int64(time.Since(t2)))
}

// move is one more morsel per partition, run when a partition is not
// key-FK: partition p's rows go to the result at the sum of the match
// counts before p. A key-FK partition copies its rows from kfk (its raw
// larger rows from the image range), any other gathers both sides at
// its match list. kfk's result arrays go back to the kit once copied.
func (ip *imagePass) move(items int, lists matchLists) ImageProjection {
	e, larger, smaller := ip.e, ip.larger, ip.smaller
	lOffs, sOffs := larger.Offsets, smaller.Offsets
	h := len(lOffs) - 1
	at := mempool.Slice[int](e.mem(), h+1)
	at[0] = 0
	for pt := range h {
		at[pt+1] = at[pt] + lists.counts[pt]
	}
	res := ImageProjection{N: at[h], Larger: make([][]int32, len(larger.Cols)), Smaller: make([][]int32, len(smaller.Cols))}
	for _, cols := range [][][]int32{res.Larger, res.Smaller} {
		for c := range cols {
			cols[c] = e.Own(res.N)
		}
	}
	e.run(items, h, func(pt int, s *Scratch) {
		part, a, b, ll, lh := lists.list(pt), at[pt], at[pt+1], lOffs[pt], lOffs[pt+1]
		t0 := time.Now()
		if ip.keyFK(pt, part) {
			for c, col := range ip.kfk.Larger {
				copy(res.Larger[c][a:b], col[ll:lh])
			}
			t1 := time.Now()
			for c, col := range ip.kfk.Smaller {
				copy(res.Smaller[c][a:b], col[ll:lh])
			}
			ip.largerNs.Add(int64(t1.Sub(t0)))
			ip.smallerNs.Add(int64(time.Since(t1)))
			return
		}
		err := e.fetchRanges(res.Larger, a, larger.Cols, larger.ColsEnc, ll, lh, part.Larger, s)
		t1 := time.Now()
		if err != nil {
			ip.fail(pt, "larger", err)
		} else if err = e.fetchRanges(res.Smaller, a, smaller.Cols, smaller.ColsEnc, sOffs[pt], sOffs[pt+1], part.Smaller, s); err != nil {
			ip.fail(pt, "smaller", err)
		}
		ip.largerNs.Add(int64(t1.Sub(t0)))
		ip.smallerNs.Add(int64(time.Since(t1)))
	})
	Return(e, at)
	home := e.Home()
	for c, col := range slices.Concat(ip.kfk.Larger, ip.kfk.Smaller) {
		if c >= len(ip.kfk.Views) || !ip.kfk.Views[c] {
			mempool.Recycle(home, col)
		}
	}
	return res
}

// fail records partition pt's error on the named side, unless a lower
// partition failed.
func (ip *imagePass) fail(pt int, side string, err error) {
	ip.mu.Lock()
	defer ip.mu.Unlock()
	if ip.err == nil || pt < ip.errPt {
		ip.errPt, ip.err = pt, fmt.Errorf("exec: image projection: partition %d, %s %w", pt, side, err)
	}
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
func checkImageCols(cols [][]int32, encs []*compress.Encoded, n int) (encoded int, err error) {
	for c, col := range cols {
		m := len(col)
		if enc := encAt(encs, c); enc != nil {
			m = enc.Len()
			encoded++
		}
		if m != n {
			return 0, fmt.Errorf("exec: image projection: column %d holds %d values, the image %d", c, m, n)
		}
	}
	return encoded, nil
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
