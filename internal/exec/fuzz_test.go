package exec

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"strings"
	"testing"

	"radixdecluster/internal/compress"
	"radixdecluster/internal/join"
	"radixdecluster/internal/posjoin"
)

// FuzzFetchImage holds the fetch over join images (Engine.FetchImage) to
// posjoin.FetchInto over the fully decoded columns, on the serial engine
// and at nominal parallelism 1, 2 and 8 on a 2-worker runtime. Each side
// is an image of 1 to 2^10 partitions — uniform, with every other
// partition empty, or one partition holding every tuple (the scratch
// grows to it) — whose join-index comes from the probe over the images.
// Keys are random, or duplicate smaller keys make the probe's partitions
// overflow, so the match offsets (join.Index.Parts) differ from the image
// offsets, or the join is key-FK (distinct smaller keys every larger key
// finds), so each larger partition's matches are its whole range. Every
// column is raw or encoded as the input picks. With corruption on, one
// block of an encoded column gets an unknown scheme byte: the fetch must
// fail exactly when a partition with matches reads that block, with the
// lowest such partition's error, and every engine must return the serial
// loop's error. Sizes reach 2·MinParallelN, so the parallel paths run.
// Run with `go test -run '^$' -fuzz '^FuzzFetchImage$' ./internal/exec/`;
// the seed corpus doubles as a regression test under plain `go test`.
func FuzzFetchImage(f *testing.F) {
	f.Add(uint64(1), uint32(MinParallelN+5), uint8(6), uint8(0), uint8(0o13), uint16(0))
	f.Add(uint64(2), uint32(3*MinParallelN/2), uint8(10), uint8(1), uint8(0o55), uint16(0))
	f.Add(uint64(3), uint32(2*MinParallelN), uint8(4), uint8(2), uint8(0o77), uint16(0))
	f.Add(uint64(4), uint32(MinParallelN+900), uint8(8), uint8(3), uint8(0o06), uint16(0))
	f.Add(uint64(5), uint32(2*MinParallelN-3), uint8(5), uint8(4), uint8(0o22), uint16(7))
	f.Add(uint64(6), uint32(700), uint8(0), uint8(5), uint8(0o71), uint16(1))
	f.Add(uint64(7), uint32(MinParallelN+1), uint8(9), uint8(2), uint8(0o04), uint16(40))
	f.Add(uint64(8), uint32(MinParallelN+3000), uint8(7), uint8(0), uint8(0o37), uint16(26))
	f.Add(uint64(9), uint32(2*MinParallelN), uint8(3), uint8(3), uint8(0o70), uint16(13))
	f.Add(uint64(10), uint32(2*MinParallelN-100), uint8(6), uint8(6), uint8(0o25), uint16(0))
	f.Add(uint64(11), uint32(MinParallelN+77), uint8(10), uint8(7), uint8(0o77), uint16(0))
	f.Add(uint64(12), uint32(3*MinParallelN/2), uint8(2), uint8(8), uint8(0o41), uint16(30))
	rt := NewRuntimeOpts(Options{Workers: 2})
	f.Cleanup(rt.Close)
	f.Fuzz(func(t *testing.T, seed uint64, size uint32, bits8, shape8, mix8 uint8, corrupt uint16) {
		n := int(size % (2*MinParallelN + 1))
		bits, layout, keys := int(bits8%11), int(shape8%3), int(shape8/3%3)
		larger, smaller := fuzzSides(seed, n, bits, layout, keys, mix8)
		want := probeImages(t, &larger, &smaller, bits)
		bad, badCol, badBlock := corruptOne(&larger, &smaller, corrupt)

		for _, nominal := range []int{0, 1, 2, 8} {
			e := NewEngine(rt, nominal)
			for i, side := range [2]*imageSide{&larger, &smaller} {
				pos := [2][]OID{want.Larger, want.Smaller}[i]
				tag := fmt.Sprintf("nominal %d n=%d bits=%d layout=%d keys=%d side %d", nominal, n, bits, layout, keys, i)
				got, err := e.FetchImage(side.cols, side.encs, side.img.Offsets, want.Parts, pos)
				if side == bad && badCol >= 0 {
					wantPt := side.firstReader(badBlock, want.Parts)
					if wantPt < 0 {
						if err != nil {
							e.Close()
							t.Fatalf("%s: no partition with matches reads corrupt block %d, yet: %v", tag, badBlock, err)
						}
					} else if err == nil || !strings.HasPrefix(err.Error(), fmt.Sprintf("partition %d, column %d: ", wantPt, badCol)) {
						e.Close()
						t.Fatalf("%s: partition %d reads corrupt block %d of column %d, got error %v", tag, wantPt, badBlock, badCol, err)
					}
					// Every engine returns the serial loop's error.
					serial := NewEngine(nil, 0)
					_, serialErr := serial.FetchImage(side.cols, side.encs, side.img.Offsets, want.Parts, pos)
					serial.Close()
					if fmt.Sprint(err) != fmt.Sprint(serialErr) {
						e.Close()
						t.Fatalf("%s: error %v, the serial loop's %v", tag, err, serialErr)
					}
					if err != nil {
						continue
					}
				} else if err != nil {
					e.Close()
					t.Fatalf("%s: %v", tag, err)
				}
				for c, wantCol := range side.fetch(t, pos) {
					if !slices.Equal(got[c], wantCol) {
						e.Close()
						t.Fatalf("%s column %d (encoded %v): the image fetch differs from FetchInto over the decoded column",
							tag, c, side.encs[c] != nil)
					}
				}
			}
			e.Close()
		}
	})
}

// FuzzProbeFetchImages holds the one-pass projection over join images
// (Engine.ProjectImages) to join.PartitionedImagesInto followed by
// posjoin.FetchInto over the fully decoded columns, on the serial engine
// and at nominal parallelism 1, 2 and 8 on a 2-worker runtime. The sides
// are FuzzFetchImage's images, with six key shapes: random, duplicate
// smaller keys, key-FK (every larger partition matched exactly once, in
// order, so the larger result is written in place and a raw larger
// column is the image's own), mixed — key-FK in the lower half of
// the partitions only, while each upper partition has one match per
// larger tuple yet misses some and matches others twice, so the
// fallback runs after in-place writes (on the serial engine always) and
// a match count alone cannot tell — distinct with misses: key-FK in
// the lower half, misses in the upper — and key-FK over a smaller side
// that is not Distinct, whose matches are scanned. Each image is
// Distinct exactly when join.DistinctHashes finds it so, and the
// reference probe runs before that is set: the early exit of a distinct
// smaller side (with its count-based key-FK test) is held to the full
// chain walk. Columns are raw or encoded as the input picks. With
// corruption on, one block of an encoded column gets an unknown scheme
// byte, and every engine must return the error of the serial loop — the
// serial fetch of the larger side, then of the smaller — or, where no
// partition with matches reads the block, the result. Run with
// `go test -run '^$' -fuzz '^FuzzProbeFetchImages$' ./internal/exec/`;
// the seed corpus doubles as a regression test under plain `go test`.
func FuzzProbeFetchImages(f *testing.F) {
	f.Add(uint64(1), uint32(MinParallelN+5), uint8(6), uint8(6), uint8(0o13), uint16(0))
	f.Add(uint64(2), uint32(3*MinParallelN/2), uint8(10), uint8(9), uint8(0o55), uint16(0))
	f.Add(uint64(3), uint32(2*MinParallelN), uint8(4), uint8(7), uint8(0o77), uint16(0))
	f.Add(uint64(4), uint32(MinParallelN+900), uint8(8), uint8(10), uint8(0o06), uint16(0))
	f.Add(uint64(5), uint32(2*MinParallelN-3), uint8(5), uint8(0), uint8(0o22), uint16(7))
	f.Add(uint64(6), uint32(700), uint8(0), uint8(6), uint8(0o71), uint16(1))
	f.Add(uint64(7), uint32(MinParallelN+1), uint8(9), uint8(3), uint8(0o04), uint16(40))
	f.Add(uint64(8), uint32(MinParallelN+3000), uint8(7), uint8(9), uint8(0o37), uint16(26))
	f.Add(uint64(9), uint32(2*MinParallelN), uint8(3), uint8(11), uint8(0o70), uint16(13))
	f.Add(uint64(10), uint32(2*MinParallelN-100), uint8(6), uint8(8), uint8(0o25), uint16(0))
	f.Add(uint64(11), uint32(MinParallelN+77), uint8(10), uint8(6), uint8(0o00), uint16(0))
	f.Add(uint64(12), uint32(3*MinParallelN/2), uint8(2), uint8(9), uint8(0o41), uint16(30))
	f.Add(uint64(13), uint32(2*MinParallelN), uint8(6), uint8(6), uint8(0o77), uint16(21))
	f.Add(uint64(14), uint32(MinParallelN+500), uint8(5), uint8(9), uint8(0o00), uint16(0))
	// Distinct key-FK: every partition's count test passes, in place.
	f.Add(uint64(15), uint32(2*MinParallelN), uint8(7), uint8(6), uint8(0o00), uint16(0))
	f.Add(uint64(16), uint32(3*MinParallelN/2), uint8(5), uint8(7), uint8(0o52), uint16(0))
	// Distinct with misses: the fallback runs after early-exit probes.
	f.Add(uint64(17), uint32(2*MinParallelN-9), uint8(6), uint8(12), uint8(0o00), uint16(0))
	f.Add(uint64(18), uint32(MinParallelN+2000), uint8(4), uint8(13), uint8(0o25), uint16(0))
	// Key-FK past a smaller duplicate no larger key finds: in place after
	// the full chain walk and the match-by-match test.
	f.Add(uint64(19), uint32(2*MinParallelN), uint8(6), uint8(15), uint8(0o00), uint16(0))
	rt := NewRuntimeOpts(Options{Workers: 2})
	f.Cleanup(rt.Close)
	f.Fuzz(func(t *testing.T, seed uint64, size uint32, bits8, shape8, mix8 uint8, corrupt uint16) {
		n := int(size % (2*MinParallelN + 1))
		bits, layout, keys := int(bits8%11), int(shape8%3), int(shape8/3%6)
		larger, smaller := fuzzSides(seed, n, bits, layout, keys, mix8)
		ix := probeImages(t, &larger, &smaller, bits)
		for _, side := range []*imageSide{&larger, &smaller} {
			side.img.Distinct = join.DistinctHashes(&side.img, uint(bits))
		}
		if (keys == 2 || keys == 4) && !smaller.img.Distinct || keys == 5 && n >= 4 && smaller.img.Distinct {
			t.Fatalf("keys=%d: the smaller side found Distinct=%v", keys, smaller.img.Distinct)
		}
		corruptOne(&larger, &smaller, corrupt)
		wantL, wantS := larger.fetch(t, ix.Larger), smaller.fetch(t, ix.Smaller)

		// The serial loop's error: the larger side's fetch, then the
		// smaller side's.
		serial := NewEngine(nil, 0)
		_, wantErr := serial.FetchImage(larger.cols, larger.encs, larger.img.Offsets, ix.Parts, ix.Larger)
		if wantErr == nil {
			_, wantErr = serial.FetchImage(smaller.cols, smaller.encs, smaller.img.Offsets, ix.Parts, ix.Smaller)
		}
		serial.Close()

		li := &Image{Image: larger.img, Cols: larger.cols, ColsEnc: larger.encs}
		si := &Image{Image: smaller.img, Cols: smaller.cols, ColsEnc: smaller.encs}
		for _, nominal := range []int{0, 1, 2, 8} {
			tag := fmt.Sprintf("nominal %d n=%d bits=%d layout=%d keys=%d", nominal, n, bits, layout, keys)
			e := NewEngine(rt, nominal)
			got, err := e.ProjectImages(li, si, uint(bits))
			e.Close()
			if fmt.Sprint(err) != fmt.Sprint(wantErr) {
				t.Fatalf("%s: error %v, the serial loop's %v", tag, err, wantErr)
			}
			if err != nil {
				continue
			}
			if got.N != ix.Len() {
				t.Fatalf("%s: %d rows, the join-index %d", tag, got.N, ix.Len())
			}
			keyFK := identity(ix.Larger, 0, len(larger.img.Hashes))
			for c, col := range got.Larger {
				if !slices.Equal(col, wantL[c]) {
					t.Fatalf("%s: larger column %d (encoded %v) differs from FetchInto over the decoded column", tag, c, larger.encs[c] != nil)
				}
				// A raw larger column of a key-FK join is the image's own,
				// capped at its length; every other column is a result array.
				view := keyFK && larger.encs[c] == nil
				if c < len(got.Views) && got.Views[c] != view || c >= len(got.Views) && view {
					t.Fatalf("%s: larger column %d: Views %v, want %v", tag, c, got.Views, view)
				}
				if got.N == 0 {
					continue
				}
				if shares := larger.cols[c] != nil && &col[0] == &larger.cols[c][0]; shares != view || view && cap(col) != got.N {
					t.Fatalf("%s: larger column %d shares the image's memory: %v (cap %d), want %v", tag, c, shares, cap(col), view)
				}
			}
			for c, col := range got.Smaller {
				if !slices.Equal(col, wantS[c]) {
					t.Fatalf("%s: smaller column %d (encoded %v) differs from FetchInto over the decoded column", tag, c, smaller.encs[c] != nil)
				}
			}
		}
	})
}

// fuzzSides builds the two sides of a fuzzed join over images, n larger
// tuples and n/2+1 smaller ones (n in the mixed shape), three columns
// each (see fuzzImage). The keys are random over a domain of n+1
// (keys 0), duplicate smaller keys from a domain a quarter of the
// smaller side's size (1), key-FK: the smaller keys a permutation of the
// larger's domain (2), mixed: key-FK in the lower half of the
// partitions only (3), distinct with misses: key-FK but for every
// other larger tuple of the upper half of the partitions (4), or key-FK
// with one smaller key twice, a key no larger tuple carries (5).
func fuzzSides(seed uint64, n, bits, layout, keys int, mix uint8) (larger, smaller imageSide) {
	rng := rand.New(rand.NewPCG(seed, 35))
	const ncols = 3
	nS := n/2 + 1
	randKeys := func(n, domain int) []int {
		out := make([]int, n)
		for i := range out {
			out[i] = rng.IntN(domain)
		}
		return out
	}
	var lk, sk []int
	switch keys {
	case 0:
		lk, sk = randKeys(n, n+1), randKeys(nS, n+1)
	case 1:
		lk, sk = randKeys(n, nS/4+1), randKeys(nS, nS/4+1)
	case 2:
		lk, sk = randKeys(n, nS), rng.Perm(nS)
	case 4:
		// Key-FK, but in the upper half of the partitions every other
		// larger key moves past the smaller domain, within its
		// partition, and misses.
		lk, sk = randKeys(n, nS), rng.Perm(nS)
		h := 1 << bits
		for i, k := range lk {
			if partOf(k, bits, layout) >= h/2 && i%2 == 0 {
				lk[i] = k + h*(nS/h+1)
			}
		}
	case 5:
		lk, sk = randKeys(n, max(nS-2, 1)), rng.Perm(nS)
		if nS >= 3 {
			sk[slices.Index(sk, nS-1)] = nS - 2
		}
	default:
		// Distinct keys on both sides, each larger key matched once —
		// but in the upper half of the partitions key k+h, which lies in
		// k's partition, takes the place of every other smaller key k:
		// the larger tuple with key k misses and the one with key k+h
		// matches twice, so such a partition has as many matches as
		// larger tuples, yet not each of them once.
		lk, sk = rng.Perm(n), rng.Perm(n)
		h := 1 << bits
		for i, k := range sk {
			if partOf(k, bits, layout) >= h/2 && k/h%2 == 0 && k+h < n {
				sk[i] = k + h
			}
		}
	}
	larger = fuzzImage(rng, lk, bits, layout, ncols, mix)
	smaller = fuzzImage(rng, sk, bits, layout, ncols, mix>>ncols)
	return larger, smaller
}

// probeImages is the serial probe over two fuzzed sides' images.
func probeImages(t *testing.T, larger, smaller *imageSide, bits int) *join.Index {
	t.Helper()
	ix := &join.Index{}
	var ts join.TableScratch
	if err := join.PartitionedImagesInto(ix, &ts, &larger.img, &smaller.img, uint(bits)); err != nil {
		t.Fatal(err)
	}
	return ix
}

// corruptOne gives, when corrupt is set, one block of the first encoded
// column of one side an unknown scheme byte (corruptBlock), and reports
// which: the side, the column (-1 if that side has no encoded column)
// and the block.
func corruptOne(larger, smaller *imageSide, corrupt uint16) (bad *imageSide, col, block int) {
	if corrupt == 0 {
		return nil, -1, 0
	}
	bad = [2]*imageSide{larger, smaller}[corrupt%2]
	for c, enc := range bad.encs {
		if enc != nil {
			block = int(corrupt/2) % enc.BlockCount()
			bad.corruptBlock(c, block)
			return bad, c, block
		}
	}
	return bad, -1, 0
}

// imageSide is one side of a fuzzed join image: its probe input, each
// column's values in image order, and the columns as FetchImage takes
// them — raw in cols or encoded in encs (cols entry nil).
type imageSide struct {
	img  join.Image
	raw  [][]int32
	cols [][]int32
	encs []*compress.Encoded
	data [][]byte // each encoding's stream, which the encoding reads in place
}

// fuzzImage builds an image of the tuples with the given keys in 2^bits
// partitions, laid out uniformly (0), with every other partition empty
// (1), or all in partition 0 (2). The hashes are the keys: the
// probe compares them within a partition and never checks which
// partition a hash belongs in. Column c is encoded when bit c of mix is
// set (the larger side takes mix's low bits, the smaller side the next
// ones).
func fuzzImage(rng *rand.Rand, keys []int, bits, layout, ncols int, mix uint8) imageSide {
	n, h := len(keys), 1<<bits
	part := func(key int) int { return partOf(key, bits, layout) }
	offs := make([]int, h+1)
	for _, k := range keys {
		offs[part(k)+1]++
	}
	for p := range h {
		offs[p+1] += offs[p]
	}
	s := imageSide{img: join.Image{Hashes: make([]uint32, n), Offsets: offs}}
	at := slices.Clone(offs[:h])
	for _, k := range keys {
		p := part(k)
		s.img.Hashes[at[p]] = uint32(k)
		at[p]++
	}
	for c := range ncols {
		vals := make([]int32, n)
		for i := range vals {
			switch c % 3 {
			case 0:
				vals[i] = int32(rng.IntN(1 << 12)) // narrow: FOR packs it
			case 1:
				vals[i] = int32(i*3 + rng.IntN(3)) // ascending: DeltaFOR packs it
			default:
				vals[i] = int32(rng.Uint32())
			}
		}
		s.raw = append(s.raw, vals)
		if mix>>c&1 == 0 || n == 0 {
			s.cols, s.encs, s.data = append(s.cols, vals), append(s.encs, nil), append(s.data, nil)
			continue
		}
		scheme := compress.FOR
		if c%3 == 1 {
			scheme = compress.DeltaFOR
		}
		data, err := compress.Compress(vals, scheme)
		if err != nil {
			panic(err)
		}
		enc, err := compress.ParseEncoded(data)
		if err != nil {
			panic(err)
		}
		s.cols, s.encs, s.data = append(s.cols, nil), append(s.encs, enc), append(s.data, data)
	}
	return s
}

// partOf is the partition of key in fuzzImage's layout over 2^bits
// partitions.
func partOf(key, bits, layout int) int {
	switch layout {
	case 1:
		return key % (1 << bits) &^ 1
	case 2:
		return 0
	}
	return key % (1 << bits)
}

// fetch is posjoin.FetchInto of pos from each of the side's columns,
// decoded.
func (s *imageSide) fetch(t *testing.T, pos []OID) [][]int32 {
	t.Helper()
	out := make([][]int32, len(s.raw))
	for c, col := range s.raw {
		out[c] = make([]int32, len(pos))
		if err := posjoin.FetchInto(out[c], col, pos); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// corruptBlock gives block b of column c's encoding an unknown scheme
// byte, which its decode rejects.
func (s *imageSide) corruptBlock(c, b int) {
	off := 0
	for i := range b {
		off += s.encs[c].BlockBytes(i)
	}
	s.data[c][off] = 0xff
}

// firstReader is the lowest partition with matches whose image range
// reads block b, -1 if none does.
func (s *imageSide) firstReader(b int, parts []int) int {
	offs := s.img.Offsets
	for p := 0; p+1 < len(offs); p++ {
		lo, hi := offs[p], offs[p+1]
		if parts[p] < parts[p+1] && lo < (b+1)*compress.BlockSize && b*compress.BlockSize < hi {
			return p
		}
	}
	return -1
}
