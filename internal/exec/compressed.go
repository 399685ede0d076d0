package exec

// Join images live in this file, the only one that reads and writes
// block-compressed encodings: every other operator takes raw []int32
// / *nsm.Relation operands. ImageStore builds and holds a relation's
// join images, encodings included, and ProjectImages, the u/u
// post-projection over two join images, reads them, raw or
// compressed, one radix partition per morsel. Per partition it
// decodes an encoded column's image range into the worker's scratch
// and gathers the partition's matches from there — or, for a larger
// partition matched exactly once, decodes it straight into the result
// — so a compressed plan decodes where it fetches and leases no
// decoded column. The decoded values are the raw ones, so a
// compressed run is byte-identical to the raw run of the same plan.

import (
	"cmp"
	"fmt"
	"maps"
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
// per pair), one the plan reads encoded (ImageCol.enc) from its range
// decoded into s's scratch, and an odd raw one alone. Without positions
// it reads and decodes nothing. An error names its column.
func (ip *imagePass) fetchRanges(dsts [][]int32, at int, cols []ImageCol, lo, hi int, pos []OID, s *Scratch) error {
	if len(pos) == 0 {
		return nil
	}
	end := at + len(pos)
	held := -1 // a raw column waiting for its pair
	for c, col := range cols {
		var err error
		switch enc := col.enc(ip.compressed); {
		case enc != nil:
			src := s.Int32s(hi - lo)
			if err = ip.e.comp.decode(src, enc, lo, hi); err == nil {
				err = posjoin.FetchWindowInto(dsts[c][at:end], src, OID(lo), pos)
			}
		case held < 0:
			held = c
		default:
			err = posjoin.FetchWindowPairInto(dsts[held][at:end], dsts[c][at:end], cols[held].Raw[lo:hi], col.Raw[lo:hi], OID(lo), pos)
			held = -1
		}
		if err != nil {
			return fmt.Errorf("column %d: %w", c, err)
		}
	}
	if held >= 0 {
		if err := posjoin.FetchWindowInto(dsts[held][at:end], cols[held].Raw[lo:hi], OID(lo), pos); err != nil {
			return fmt.Errorf("column %d: %w", held, err)
		}
	}
	return nil
}

// ImageCol is one projection column of a join image, in image order:
// its values (Raw), their block-compressed encoding (Enc), or both. A
// raw plan reads Raw, a compressed plan Enc where it is set (enc).
type ImageCol struct {
	Raw []int32
	Enc *compress.Encoded
}

// enc is the encoding a plan reads: Enc for a compressed plan, none for
// any other.
func (c ImageCol) enc(compressed bool) *compress.Encoded {
	if compressed {
		return c.Enc
	}
	return nil
}

// Image is one side of a join over join images as the engine reads it:
// the clustered join input and the projection columns in that order.
type Image struct {
	join.Image
	Cols []ImageCol
}

// ImageStore is one relation's join images, one per key column joined
// on, each radix-clustered for the field the last query asked, with the
// columns queries projected from it in image order. It alone decides
// what an image lacks, builds it and counts its bytes. Images are
// GC-owned: they outlive every query, and a key-FK query's larger
// result columns are views of their columns. The zero value is an empty
// store; it must not be copied after first use.
type ImageStore struct {
	mu    sync.Mutex // guards keys; never held across a build
	keys  map[string]*keyImage
	bytes atomic.Int64 // Bytes; each stored build adds what it changed
}

// keyImage is one key column's image, read and extended under its build
// lock mu.
type keyImage struct {
	mu sync.Mutex
	HeldImage
	o     radix.Opts
	tried map[string]bool // encodings tried; Enc nil where one did not shrink Raw
}

// HeldImage is what an image holds: the clustering and, by column name,
// what it holds of each column (Cols nil before the first build).
type HeldImage struct {
	join.Image
	Cols map[string]ImageCol
}

// Image returns the join image of the key column, whose values are
// keys, for radix field o with the proj columns, whose values are
// cols, in image order: raw or, for a compressed plan, encoded where
// the encoding shrinks them. Names identify columns, so a name must
// keep its values. Under the key column's build lock it decides what
// the image lacks — all of it for another radix field, a raw plan's
// copy of a column, a compressed plan's encoding not yet tried — and
// builds that on e, the querying engine (buildImage), so concurrent
// first queries build each part once. After the unlock it reports
// each part as a step of e: "build-join-image" for the clustering,
// "build-image-column" for a column or an encoding. The clustering is
// stable, so the image is keyed by the radix field alone, not the
// pass split. It holds the key hashes the probe compares, not the
// keys: a projected key column is a column like any other.
func (s *ImageStore) Image(e *Engine, key string, keys []int32, proj []string, cols [][]int32, o radix.Opts, compressed bool) (Image, error) {
	var steps []func()
	defer func() { // deferred before the lock, so it runs after the unlock
		for _, step := range steps {
			step()
		}
	}()
	ki := s.keyImage(key)
	ki.mu.Lock()
	defer ki.mu.Unlock()
	cluster := ki.Cols == nil || ki.o.Bits != o.Bits || ki.o.Ignore != o.Ignore
	held, tried := ki.Cols, ki.tried
	if cluster {
		held, tried = map[string]ImageCol{}, map[string]bool{}
	}
	var names []string
	var lack []buildCol
	for i, name := range proj {
		encode := compressed && !tried[name]
		if !encode && (compressed || held[name].Raw != nil) || slices.Contains(names, name) {
			continue
		}
		names, lack = append(names, name), append(lack, buildCol{cols[i], encode})
	}
	if cluster || len(lack) > 0 {
		before := ki.size()
		start := time.Now()
		b, err := e.buildImage(keys, o, cluster, lack)
		if err != nil {
			return Image{}, err
		}
		if cluster {
			ki.Image, ki.Cols, ki.tried, ki.o = b.Image, held, tried, o
			steps = append(steps, func() { e.Step("build-join-image", start, b.clustered) })
		}
		for j, name := range names {
			c := held[name]
			if c.Raw == nil {
				c.Raw = b.cols[j].Raw
			}
			if lack[j].encode {
				c.Enc, tried[name] = b.cols[j].Enc, true
			}
			held[name] = c
			steps = append(steps, func() { e.Step("build-image-column", start, b.done[j]) })
		}
		s.bytes.Add(ki.size() - before)
	}
	img := Image{Image: ki.Image, Cols: make([]ImageCol, len(proj))}
	for i, name := range proj {
		img.Cols[i] = ki.Cols[name]
	}
	return img, nil
}

// keyImage returns the key column's image, empty before its first build.
func (s *ImageStore) keyImage(key string) *keyImage {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.keys == nil {
		s.keys = map[string]*keyImage{}
	}
	if s.keys[key] == nil {
		s.keys[key] = &keyImage{}
	}
	return s.keys[key]
}

// size is the image's share of Bytes.
func (ki *keyImage) size() int64 {
	n := 4*int64(len(ki.Hashes)) + 8*int64(len(ki.Offsets))
	for _, c := range ki.Cols {
		n += 4 * int64(len(c.Raw))
		if c.Enc != nil {
			n += int64(c.Enc.CompressedBytes())
		}
	}
	return n
}

// Bytes reports what the images hold: per key column 4 B per tuple of
// key hashes and 8 B per partition offset, 4 B per tuple per column held
// raw, and the encoded bytes of each encoding. Each stored build keeps
// the total up to date, so reading it never waits for a build.
func (s *ImageStore) Bytes() int64 { return s.bytes.Load() }

// Held snapshots the images built so far, by key column.
func (s *ImageStore) Held() map[string]HeldImage {
	s.mu.Lock()
	kis := maps.Clone(s.keys)
	s.mu.Unlock()
	out := map[string]HeldImage{}
	for key, ki := range kis {
		ki.mu.Lock()
		if ki.Cols != nil {
			out[key] = HeldImage{ki.Image, maps.Clone(ki.Cols)}
		}
		ki.mu.Unlock()
	}
	return out
}

// buildCol is a column an image build writes in image order: its values
// in base order, and whether the build encodes the image-order copy in
// place of keeping it.
type buildCol struct {
	vals   []int32
	encode bool
}

// imageBuild is what buildImage built: the clustering, when asked for,
// done at clustered, and the columns in the order asked — an encoded
// column as Enc, or as Raw when its encoding did not shrink it — each
// done at done[j].
type imageBuild struct {
	join.Image
	clustered time.Time
	cols      []ImageCol
	done      []time.Time
}

// buildImage builds a relation's join image of keys for radix field o —
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
func (e *Engine) buildImage(keys []int32, o radix.Opts, cluster bool, cols []buildCol) (imageBuild, error) {
	if err := o.Validate(); err != nil {
		return imageBuild{}, err
	}
	n := len(keys)
	vals := make([][]int32, len(cols))
	for j, c := range cols {
		if len(c.vals) != n {
			return imageBuild{}, fmt.Errorf("exec: image build: column %d holds %d values, the keys %d", j, len(c.vals), n)
		}
		vals[j] = c.vals
	}
	nch, passes := e.split(n, o)
	var hs [2][]uint32
	if cluster || len(passes) > 1 {
		hs = imageBufs[uint32](e, n, passes, cluster)
	}
	bufs := make([][2][]int32, len(cols))
	for j, c := range cols {
		bufs[j] = imageBufs[int32](e, n, passes, !c.encode)
	}
	count, scatter := radix.ImageKernels(keys, vals, hs, bufs)
	offsets := e.cluster(n, o, nch, passes, count, scatter)
	scattered := time.Now()
	r := radix.Result(passes)
	Return(e, hs[1-r])
	for _, b := range bufs {
		Return(e, b[1-r])
	}

	var b imageBuild
	if cluster {
		b.Image = join.Image{Hashes: hs[r], Offsets: slices.Clone(offsets)}
		b.Distinct = e.distinct(&b.Image, uint(o.Ignore+o.Bits))
		b.clustered = time.Now()
	} else {
		Return(e, hs[r])
	}
	Return(e, offsets)

	b.cols, b.done = make([]ImageCol, len(cols)), make([]time.Time, len(cols))
	var encode []int
	for j, c := range cols {
		if c.encode {
			encode = append(encode, j)
			continue
		}
		b.cols[j].Raw, b.done[j] = bufs[j][r], scattered
	}
	errs := e.errSlots(len(encode))
	e.run(n*len(encode), len(encode), func(t int, _ *Scratch) {
		j := encode[t]
		enc, err := compress.EncodeBest(bufs[j][r])
		if errs[t] = err; err != nil {
			return
		}
		if enc.Ratio() < 1 {
			b.cols[j].Enc = enc
		} else {
			b.cols[j].Raw = slices.Clone(bufs[j][r])
		}
		b.done[j] = time.Now()
	})
	for _, j := range encode {
		Return(e, bufs[j][r])
	}
	if err := firstErr(errs); err != nil {
		return imageBuild{}, err
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
// image the probe is join.ProbeFirst (probeFirst): one smaller
// position per larger tuple, and the partition is key-FK when every
// probe matched — its larger positions, the image range, are then
// never written. Otherwise join.ProbeImage emits the match list,
// checked match by match. A key-FK partition writes its rows once, at
// its image range: smaller columns gathered from the partition's
// image range (fetchRanges), encoded larger columns decoded straight
// into the result. When every partition is key-FK that is the whole
// query, and each raw larger column is the image column itself
// (Views), neither copied nor leased; otherwise imagePass.move places
// the rows. The bytes are posjoin.FetchInto's over
// join.PartitionedImagesInto's join-index and the decoded columns; an
// error is the lowest failing partition's, larger columns before
// smaller ones. A compressed plan (compressed) reads each column's
// encoding where it has one, any other plan the raw values. The
// in-morsel fetch times apportion the wall time to PhaseProjectLarger
// and PhaseProjectSmaller (attribute); the probe's share stays with
// the calling phase's kind.
func (e *Engine) ProjectImages(larger, smaller *Image, shift uint, compressed bool) (ImageProjection, error) {
	lOffs, sOffs := larger.Offsets, smaller.Offsets
	if len(lOffs) != len(sOffs) || len(lOffs) == 0 {
		return ImageProjection{}, fmt.Errorf("exec: image projection: partition counts differ: %d vs %d", len(lOffs)-1, len(sOffs)-1)
	}
	h, n := len(lOffs)-1, lOffs[len(lOffs)-1]
	lEnc, lerr := checkImageCols(larger.Cols, n, compressed)
	sEnc, serr := checkImageCols(smaller.Cols, sOffs[h], compressed)
	if err := cmp.Or(lerr, serr); err != nil {
		return ImageProjection{}, err
	}
	e.comp.cols.Add(int64(lEnc + sEnc))

	// The key-FK rows, at their larger image positions: each raw larger
	// column is the image column itself (Views), every other column a
	// result array.
	kfk := ImageProjection{N: n, Larger: make([][]int32, len(larger.Cols)), Smaller: make([][]int32, len(smaller.Cols)), Views: make([]bool, len(larger.Cols))}
	for c, col := range larger.Cols {
		if kfk.Views[c] = col.enc(compressed) == nil; kfk.Views[c] {
			kfk.Larger[c] = col.Raw[:n:n]
		} else {
			kfk.Larger[c] = e.Own(n)
		}
	}
	for c := range kfk.Smaller {
		kfk.Smaller[c] = e.Own(n)
	}
	ip := &imagePass{e: e, larger: larger, smaller: smaller, compressed: compressed, shift: shift, kfk: kfk}
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
	compressed      bool
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
	for c, col := range ip.larger.Cols {
		enc := col.enc(ip.compressed)
		if enc == nil {
			continue
		}
		if err := ip.e.comp.decode(ip.kfk.Larger[c][ll:lh], enc, ll, lh); err != nil {
			ip.fail(pt, "larger", fmt.Errorf("column %d: %w", c, err))
			return
		}
	}
	t2 := time.Now()
	if err := ip.fetchRanges(ip.kfk.Smaller, ll, ip.smaller.Cols, sOffs[pt], sOffs[pt+1], part.Smaller, s); err != nil {
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
		err := ip.fetchRanges(res.Larger, a, larger.Cols, ll, lh, part.Larger, s)
		t1 := time.Now()
		if err != nil {
			ip.fail(pt, "larger", err)
		} else if err = ip.fetchRanges(res.Smaller, a, smaller.Cols, sOffs[pt], sOffs[pt+1], part.Smaller, s); err != nil {
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
// values as the plan reads it, raw or encoded (ImageCol.enc), and counts
// the encoded ones.
func checkImageCols(cols []ImageCol, n int, compressed bool) (encoded int, err error) {
	for c, col := range cols {
		m := len(col.Raw)
		if enc := col.enc(compressed); enc != nil {
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
