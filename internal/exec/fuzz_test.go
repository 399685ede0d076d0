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
	rt := NewRuntime(2, 0)
	f.Cleanup(rt.Close)
	f.Fuzz(func(t *testing.T, seed uint64, size uint32, bits8, shape8, mix8 uint8, corrupt uint16) {
		n := int(size % (2*MinParallelN + 1))
		bits, layout, keys := int(bits8%11), int(shape8%3), int(shape8/3%3)
		rng := rand.New(rand.NewPCG(seed, 35))
		const ncols = 3
		// The sides' keys: random over a domain of n+1, duplicate smaller
		// keys from a domain a quarter of the smaller side's size, or
		// key-FK: the smaller keys a permutation of the larger's domain.
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
		default:
			lk, sk = randKeys(n, nS), rng.Perm(nS)
		}
		larger := fuzzImage(rng, lk, bits, layout, ncols, mix8)
		smaller := fuzzImage(rng, sk, bits, layout, ncols, mix8>>ncols)
		want, err := join.PartitionedImages(&larger.img, &smaller.img, uint(bits))
		if err != nil {
			t.Fatal(err)
		}

		// Corruption: one block of the first encoded column of one side.
		var bad *imageSide
		badCol, badBlock := -1, 0
		if corrupt != 0 {
			bad = [2]*imageSide{&larger, &smaller}[corrupt%2]
			for c, enc := range bad.encs {
				if enc != nil {
					badCol, badBlock = c, int(corrupt/2)%enc.BlockCount()
					bad.corruptBlock(c, badBlock)
					break
				}
			}
		}

		for _, nominal := range []int{0, 1, 2, 8} {
			e := NewEngine(rt, nominal)
			ji, err := e.ProbePartitions(&larger.img, &smaller.img, uint(bits))
			if err != nil {
				e.Close()
				t.Fatal(err)
			}
			if !slices.Equal(ji.Larger, want.Larger) || !slices.Equal(ji.Smaller, want.Smaller) || !slices.Equal(ji.Parts, want.Parts) {
				e.Close()
				t.Fatalf("nominal %d n=%d bits=%d: the probe's join-index differs from the serial one", nominal, n, bits)
			}
			for i, side := range [2]*imageSide{&larger, &smaller} {
				pos := [2][]OID{ji.Larger, ji.Smaller}[i]
				tag := fmt.Sprintf("nominal %d n=%d bits=%d layout=%d keys=%d side %d", nominal, n, bits, layout, keys, i)
				got, err := e.FetchImage(side.cols, side.encs, side.img.Offsets, ji.Parts, pos)
				if side == bad && badCol >= 0 {
					wantPt := side.firstReader(badBlock, ji.Parts)
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
					_, serialErr := serial.FetchImage(side.cols, side.encs, side.img.Offsets, ji.Parts, pos)
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
				for c, col := range side.raw {
					wantCol := make([]int32, len(pos))
					if err := posjoin.FetchInto(wantCol, col, pos); err != nil {
						e.Close()
						t.Fatal(err)
					}
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
	part := func(key int) int {
		switch layout {
		case 1:
			return key % h &^ 1
		case 2:
			return 0
		}
		return key % h
	}
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
