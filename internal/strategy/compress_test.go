package strategy

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"radixdecluster/internal/compress"
	"radixdecluster/internal/exec"
	"radixdecluster/internal/join"
	"radixdecluster/internal/mem"
	"radixdecluster/internal/obs"
	"radixdecluster/internal/radix"
	"radixdecluster/internal/workload"
)

// encodeShrinking is compress.EncodeBest kept only when it shrinks the
// bytes — what the root package's relations do; an incompressible (or
// empty) column stays raw-only.
func encodeShrinking(t *testing.T, vals []int32) *compress.Encoded {
	t.Helper()
	if len(vals) == 0 {
		return nil
	}
	e, err := compress.EncodeBest(vals)
	if err != nil {
		t.Fatal(err)
	}
	if e.Ratio() >= 1 {
		return nil
	}
	return e
}

// encodeSides populates compressed images on both DSM sides.
func encodeSides(t *testing.T, sides ...*DSMSide) {
	t.Helper()
	for _, s := range sides {
		s.KeysEnc = encodeShrinking(t, s.Keys)
		s.ColsEnc = make([]*compress.Encoded, len(s.Cols))
		for i, col := range s.Cols {
			s.ColsEnc[i] = encodeShrinking(t, col)
		}
	}
}

// encodeNSMSides populates the compressed record image on both NSM
// sides.
func encodeNSMSides(t *testing.T, sides ...*NSMSide) {
	t.Helper()
	for _, s := range sides {
		s.Enc = encodeShrinking(t, s.Rel.Data)
	}
}

// TestCompressedStrategiesMatchRaw pins the contract: every strategy
// produces the identical join whether it runs raw or decodes
// block-compressed images ahead of the raw plan (the workload's
// dense-oid payloads compress well, so a compressed run must actually
// decode). Compress false over the same encoded sides is what the root
// package's CompressionAuto resolves to: it must run raw.
func TestCompressedStrategiesMatchRaw(t *testing.T) {
	const pi = 2
	pr := testPair(t, workload.Params{N: 1500, Omega: pi + 1, HitRate: 1, SelLarger: 1, SelSmaller: 1, Seed: 71})
	want := expectedRows(pr, pi)
	for _, comp := range []bool{true, false} {
		cfg := Config{Hier: mem.Small(), Compress: comp}
		check := func(tag string, res *Result) {
			t.Helper()
			if res.Compressed != comp {
				t.Fatalf("%s: Compressed = %v", tag, res.Compressed)
			}
			if comp && (res.Timings.Comp.Cols == 0 || res.Timings.Comp.SavedBytes <= 0) {
				t.Fatalf("%s: compressed run decoded nothing: %+v", tag, res.Timings.Comp)
			}
			if !comp && res.Timings.Comp != (exec.CompStats{}) {
				t.Fatalf("%s: raw run decoded: %+v", tag, res.Timings.Comp)
			}
		}
		l, s := dsmSides(pr, pi)
		encodeSides(t, &l, &s)
		for _, m := range [][2]ProjMethod{{PartialCluster, Unsorted}, {PartialCluster, Declustered}, {Unsorted, Unsorted}} {
			tag := fmt.Sprintf("compress=%v DSMPost %c/%c", comp, m[0], m[1])
			res, err := DSMPost(l, s, m[0], m[1], cfg)
			if err != nil {
				t.Fatalf("%s: %v", tag, err)
			}
			compareRows(t, tag, dsmResultRows(t, res, pi), want)
			check(tag, res)
		}
		if res, err := DSMPre(l, s, cfg); err != nil {
			t.Fatalf("compress=%v DSMPre: %v", comp, err)
		} else {
			tag := fmt.Sprintf("compress=%v DSMPre", comp)
			compareRows(t, tag, rowsResultRows(t, res, pi), want)
			check(tag, res)
		}
		nl, ns := nsmSides(pr, pi)
		encodeNSMSides(t, &nl, &ns)
		for _, partitioned := range []bool{false, true} {
			if res, err := NSMPre(nl, ns, partitioned, cfg); err != nil {
				t.Fatalf("compress=%v NSMPre part=%v: %v", comp, partitioned, err)
			} else {
				tag := fmt.Sprintf("compress=%v NSMPre part=%v", comp, partitioned)
				compareRows(t, tag, rowsResultRows(t, res, pi), want)
				check(tag, res)
			}
		}
		if res, err := NSMPostDecluster(nl, ns, cfg); err != nil {
			t.Fatalf("compress=%v NSMPostDecluster: %v", comp, err)
		} else {
			tag := fmt.Sprintf("compress=%v NSMPostDecluster", comp)
			compareRows(t, tag, rowsResultRows(t, res, pi), want)
			check(tag, res)
		}
		if res, err := NSMPostJive(nl, ns, 0, cfg); err != nil {
			t.Fatalf("compress=%v NSMPostJive: %v", comp, err)
		} else {
			tag := fmt.Sprintf("compress=%v NSMPostJive", comp)
			compareRows(t, tag, rowsResultRows(t, res, pi), want)
			check(tag, res)
		}
	}
}

// phaseNames lists the pipeline phases a traced run executed, in order
// (not the steps inside them).
func phaseNames(tr *obs.Trace) []string {
	var out []string
	for _, ev := range tr.Events() {
		if ev.TID == tracePipelineTrack && ev.Name != "admission" && ev.Cat != exec.StepCat {
			out = append(out, ev.Name)
		}
	}
	return out
}

// stepCount counts a traced run's steps of the given name.
func stepCount(tr *obs.Trace, name string) int {
	n := 0
	for _, ev := range tr.Events() {
		if ev.Cat == exec.StepCat && ev.Name == name {
			n++
		}
	}
	return n
}

// withJoinImages gives each side the join image a relation gives a
// runtime query: its join input and projection columns clustered
// outside the query — for a compressed plan each column whose
// image-order copy shrinks as that copy's encoding instead, as a
// relation built WithCompression hands them out. Each call clusters
// afresh, reports a build and, when encoded is not nil, adds to
// *encoded the bytes a fetch over the image decodes from the encodings
// it hands out: the blocks of every non-empty partition's range, a
// block straddling two partitions once for each.
func withJoinImages(encoded *int64, sides ...*DSMSide) {
	for _, s := range sides {
		oids, keys, base := s.OIDs, s.Keys, s.Cols
		s.JoinImage = func(o radix.Opts, compressed bool, step func(string, time.Time, time.Time)) (Image, error) {
			start := time.Now()
			img, err := clusterImage(oids, keys, base, o)
			if err != nil {
				return Image{}, err
			}
			step("build-join-image", start, time.Now())
			if compressed {
				img.ColsEnc = make([]*compress.Encoded, len(img.Cols))
				for c, col := range img.Cols {
					e, err := compress.EncodeBest(col)
					if err != nil {
						return Image{}, err
					}
					if e.Ratio() < 1 {
						img.Cols[c], img.ColsEnc[c] = nil, e
						if encoded != nil {
							*encoded += partitionBlockBytes(e, img.Offsets)
						}
					}
				}
			}
			return img, nil
		}
	}
}

// partitionBlockBytes is the encoded size of the blocks each non-empty
// partition of offs touches, summed over the partitions.
func partitionBlockBytes(e *compress.Encoded, offs []int) (n int64) {
	for p := 0; p+1 < len(offs); p++ {
		if lo, hi := offs[p], offs[p+1]; lo < hi {
			for b := lo / compress.BlockSize; b*compress.BlockSize < hi; b++ {
				n += int64(e.BlockBytes(b))
			}
		}
	}
	return n
}

// clusterImage is the join image of an [oid, key] input whose oids
// point into the base columns: the key hashes and every column's values
// in clustered order.
func clusterImage(oids []OID, keys []int32, base [][]int32, o radix.Opts) (Image, error) {
	offs, err := radix.KeyOffsets(keys, o)
	if err != nil {
		return Image{}, err
	}
	img := Image{Image: join.Image{Hashes: radix.PermuteHashes(keys, o, offs), Offsets: offs}}
	clustered := radix.Permute(keys, oids, o, offs)
	for _, col := range base {
		vals := make([]int32, len(clustered))
		for i, oid := range clustered {
			vals[i] = col[oid]
		}
		img.Cols = append(img.Cols, vals)
	}
	return img, nil
}

// tracePipelineTrack is the trace track exec's pipeline writes phase
// spans on.
const tracePipelineTrack = 1000

// TestCompressedDecodesEachInputOnce: a compressed plan over base-order
// encodings is the raw plan with a decode phase right before the first
// phase that reads each encoded input, so a run reads every encoding it
// uses exactly once — the encoded bytes a run consumes, serial or
// parallel, are the encodings' own size (N = 40 000 is no multiple of a
// parallel decode pass's chunking, so chunks that split a block would
// count it twice). Per-tuple decoding inside the fetch and gather
// operators once read a u side hundreds of times over. Covered: the DSM
// post-projection method pairs u/u, c/u, s/d and c/d, DSM
// pre-projection, and the four NSM strategies, each with its phase list.
// A runtime u/u DSM post-projection run joins over join images, as the
// root package's runtime queries do: it decodes no key column, each
// image it builds is a step of its join phase, and it lists no decode
// phase — each fetch decodes the image-order encodings the join phase
// handed it one partition at a time, so it reads the blocks of every
// partition's range, a block straddling two partitions once for each
// (the small hierarchy gives the join at least 4 partitions, so some
// do). The other runtime method pairs are handed the same images but
// cluster per query, as paper mode does: they build none and decode the
// base-order encodings.
func TestCompressedDecodesEachInputOnce(t *testing.T) {
	const pi = 2
	pr := testPair(t, workload.Params{N: 40000, Omega: pi + 1, HitRate: 1, SelLarger: 1, SelSmaller: 1, Seed: 74})
	want := expectedRows(pr, pi)
	l, s := dsmSides(pr, pi)
	encodeSides(t, &l, &s)
	li, si := l, s
	var imgBytes int64
	withJoinImages(&imgBytes, &li, &si)
	nl, ns := nsmSides(pr, pi)
	encodeNSMSides(t, &nl, &ns)
	encodedBytes := func(encs ...*compress.Encoded) (n int64) {
		for _, e := range encs {
			if e == nil {
				t.Fatal("workload input did not compress: the phase lists below assume it does")
			}
			n += int64(e.CompressedBytes())
		}
		return n
	}
	dsmBytes := encodedBytes(append(l.encs(), s.encs()...)...)
	nsmBytes := encodedBytes(nl.Enc, ns.Enc)
	dsmPost := func(lm, sm ProjMethod) func(Config) (*Result, error) {
		return func(cfg Config) (*Result, error) {
			if cfg.Parallelism != 0 {
				return DSMPost(li, si, lm, sm, cfg)
			}
			return DSMPost(l, s, lm, sm, cfg)
		}
	}
	reorder := map[ProjMethod]string{PartialCluster: "partial-cluster-join-index", SortedM: "radix-sort-join-index"}
	dsmPostPhases := func(lm, sm ProjMethod) []string {
		ph := []string{"decompress-keys", "partitioned-hash-join"}
		if lm != Unsorted {
			ph = append(ph, reorder[lm])
		}
		ph = append(ph, "decompress-larger", "fetch-larger")
		if sm == Unsorted {
			return append(ph, "decompress-smaller", "fetch-smaller")
		}
		ph = append(ph, "recluster-smaller")
		for range pi {
			ph = append(ph, "decompress-smaller", "fetch-clustered", "radix-decluster")
		}
		return ph
	}
	cases := []struct {
		name   string
		run    func(Config) (*Result, error)
		rows   func(*testing.T, *Result, int) map[string]int
		bytes  int64
		phases []string
	}{
		{"u/u", dsmPost(Unsorted, Unsorted), dsmResultRows, dsmBytes, dsmPostPhases(Unsorted, Unsorted)},
		{"c/u", dsmPost(PartialCluster, Unsorted), dsmResultRows, dsmBytes, dsmPostPhases(PartialCluster, Unsorted)},
		{"s/d", dsmPost(SortedM, Declustered), dsmResultRows, dsmBytes, dsmPostPhases(SortedM, Declustered)},
		{"c/d", dsmPost(PartialCluster, Declustered), dsmResultRows, dsmBytes, dsmPostPhases(PartialCluster, Declustered)},
		{"DSM-pre", func(cfg Config) (*Result, error) { return DSMPre(l, s, cfg) }, rowsResultRows, dsmBytes,
			[]string{"decompress-inputs", "stitch-wide-tuples", "partitioned-rows-join"}},
		{"NSM-pre-hash", func(cfg Config) (*Result, error) { return NSMPre(nl, ns, false, cfg) }, rowsResultRows, nsmBytes,
			[]string{"decompress-records", "nsm-scan-project", "rows-join"}},
		{"NSM-pre-phash", func(cfg Config) (*Result, error) { return NSMPre(nl, ns, true, cfg) }, rowsResultRows, nsmBytes,
			[]string{"decompress-records", "nsm-scan-project", "rows-join"}},
		{"NSM-post-decluster", func(cfg Config) (*Result, error) { return NSMPostDecluster(nl, ns, cfg) }, rowsResultRows, nsmBytes,
			[]string{"decompress-records", "key-extraction", "partitioned-hash-join", "partial-cluster-join-index",
				"gather-larger", "recluster-smaller", "gather-smaller", "radix-decluster-rows"}},
		{"NSM-post-jive", func(cfg Config) (*Result, error) { return NSMPostJive(nl, ns, 0, cfg) }, rowsResultRows, nsmBytes,
			[]string{"decompress-records", "key-extraction", "partitioned-hash-join", "sort-join-index",
				"jive-left", "jive-right", "assemble-result"}},
	}
	for _, c := range cases {
		for _, par := range []int{0, 2} {
			tag := fmt.Sprintf("%s par=%d", c.name, par)
			bytes, phases, builds := c.bytes, c.phases, 0
			images := par != 0 && c.name == "u/u"
			if images {
				// No base-order encoding is read; the partitions' blocks of
				// the image encodings the join phase hands out are added
				// once the run has them.
				bytes = 0
				phases = []string{"partitioned-hash-join", "fetch-larger", "fetch-smaller"}
				builds = 2
			}
			imgBytes = 0
			tr := obs.NewTrace(tag)
			res, err := c.run(Config{Hier: mem.Small(), Compress: true, Parallelism: par, Trace: tr})
			if err != nil {
				t.Fatalf("%s: %v", tag, err)
			}
			if images {
				if imgBytes == 0 {
					t.Fatalf("%s: the join images handed out no encoding: the byte count below assumes they do", tag)
				}
				if res.JoinBits < 2 {
					t.Fatalf("%s: %d join bits: the byte count below wants at least 4 partitions", tag, res.JoinBits)
				}
				bytes += imgBytes
			}
			compareRows(t, tag, c.rows(t, res, pi), want)
			if got := res.Timings.Comp.CompressedBytes; got != bytes {
				t.Errorf("%s: run read %d encoded bytes, want each encoding it uses once = %d", tag, got, bytes)
			}
			if got := phaseNames(tr); !slices.Equal(got, phases) {
				t.Errorf("%s: phases\n got  %v\n want %v", tag, got, phases)
			}
			if got := stepCount(tr, "build-join-image"); got != builds {
				t.Errorf("%s: %d build-join-image steps, want %d", tag, got, builds)
			}
			res.Release()
		}
	}
}

// TestCompressOffIgnoresEncodings: encoded sides under the default
// Compress false must run raw and report no compressed activity.
func TestCompressOffIgnoresEncodings(t *testing.T) {
	const pi = 1
	pr := testPair(t, workload.Params{N: 900, Omega: 2, HitRate: 1, SelLarger: 1, SelSmaller: 1, Seed: 72})
	l, s := dsmSides(pr, pi)
	encodeSides(t, &l, &s)
	res, err := DSMPost(l, s, PartialCluster, Declustered, Config{Hier: mem.Small()})
	if err != nil {
		t.Fatal(err)
	}
	if res.Compressed || res.Timings.Comp.Cols != 0 {
		t.Fatalf("a raw run reports compressed execution: %+v", res.Timings.Comp)
	}
	compareRows(t, "off", dsmResultRows(t, res, pi), expectedRows(pr, pi))
}

// TestSideEncodingValidation: mismatched encodings must be rejected.
func TestSideEncodingValidation(t *testing.T) {
	pr := testPair(t, workload.Params{N: 600, Omega: 2, HitRate: 1, SelLarger: 1, SelSmaller: 1, Seed: 73})
	l, s := dsmSides(pr, 1)
	bad, err := compress.EncodeBest(make([]int32, 17))
	if err != nil {
		t.Fatal(err)
	}
	l.KeysEnc = bad
	if _, err := DSMPost(l, s, Unsorted, Unsorted, Config{Hier: mem.Small()}); err == nil {
		t.Fatal("mismatched key encoding accepted")
	}
	l.KeysEnc = nil
	l.ColsEnc = []*compress.Encoded{bad}
	if _, err := DSMPost(l, s, Unsorted, Unsorted, Config{Hier: mem.Small()}); err == nil {
		t.Fatal("mismatched column encoding accepted")
	}
	nl, ns := nsmSides(pr, 1)
	nl.Enc = bad
	if _, err := NSMPostDecluster(nl, ns, Config{Hier: mem.Small()}); err == nil {
		t.Fatal("mismatched record encoding accepted")
	}
}
