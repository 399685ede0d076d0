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

// TestCompressedStrategiesMatchRaw pins the contract: every strategy
// produces the identical join under Compress as without it, and only a
// u/u plan over join images runs compressed — its fetches decode the
// image-order encodings the join phase hands them (the workload's
// dense-oid payloads compress well, so it must actually decode). Every
// other strategy and method pair runs raw under Compress and reports no
// compressed activity. Compress false over the same sides is what the
// root package's CompressionAuto resolves to: it must run raw.
func TestCompressedStrategiesMatchRaw(t *testing.T) {
	const pi = 2
	pr := testPair(t, workload.Params{N: 1500, Omega: pi + 1, HitRate: 1, SelLarger: 1, SelSmaller: 1, Seed: 71})
	want := expectedRows(pr, pi)
	for _, comp := range []bool{true, false} {
		cfg := Config{Hier: mem.Small(), Compress: comp}
		check := func(tag string, res *Result, images bool) {
			t.Helper()
			if on := comp && images; res.Compressed != on {
				t.Fatalf("%s: Compressed = %v, want %v", tag, res.Compressed, on)
			} else if on && (res.Timings.Comp.Cols == 0 || res.Timings.Comp.SavedBytes <= 0) {
				t.Fatalf("%s: compressed run decoded nothing: %+v", tag, res.Timings.Comp)
			} else if !on && res.Timings.Comp != (exec.CompStats{}) {
				t.Fatalf("%s: raw run decoded: %+v", tag, res.Timings.Comp)
			}
		}
		l, s := dsmSides(pr, pi)
		li, si := l, s
		withJoinImages(nil, &li, &si)
		for _, m := range [][2]ProjMethod{{PartialCluster, Unsorted}, {PartialCluster, Declustered}, {Unsorted, Unsorted}} {
			for _, images := range []bool{false, true} {
				tag := fmt.Sprintf("compress=%v DSMPost %c/%c images=%v", comp, m[0], m[1], images)
				run := [2]DSMSide{l, s}
				if images {
					run = [2]DSMSide{li, si}
				}
				res, err := DSMPost(run[0], run[1], m[0], m[1], cfg)
				if err != nil {
					t.Fatalf("%s: %v", tag, err)
				}
				compareRows(t, tag, dsmResultRows(t, res, pi), want)
				check(tag, res, images && m == [2]ProjMethod{Unsorted, Unsorted})
			}
		}
		if res, err := DSMPre(l, s, cfg); err != nil {
			t.Fatalf("compress=%v DSMPre: %v", comp, err)
		} else {
			tag := fmt.Sprintf("compress=%v DSMPre", comp)
			compareRows(t, tag, rowsResultRows(t, res, pi), want)
			check(tag, res, false)
		}
		nl, ns := nsmSides(pr, pi)
		for _, partitioned := range []bool{false, true} {
			if res, err := NSMPre(nl, ns, partitioned, cfg); err != nil {
				t.Fatalf("compress=%v NSMPre part=%v: %v", comp, partitioned, err)
			} else {
				tag := fmt.Sprintf("compress=%v NSMPre part=%v", comp, partitioned)
				compareRows(t, tag, rowsResultRows(t, res, pi), want)
				check(tag, res, false)
			}
		}
		if res, err := NSMPostDecluster(nl, ns, cfg); err != nil {
			t.Fatalf("compress=%v NSMPostDecluster: %v", comp, err)
		} else {
			tag := fmt.Sprintf("compress=%v NSMPostDecluster", comp)
			compareRows(t, tag, rowsResultRows(t, res, pi), want)
			check(tag, res, false)
		}
		if res, err := NSMPostJive(nl, ns, 0, cfg); err != nil {
			t.Fatalf("compress=%v NSMPostJive: %v", comp, err)
		} else {
			tag := fmt.Sprintf("compress=%v NSMPostJive", comp)
			compareRows(t, tag, rowsResultRows(t, res, pi), want)
			check(tag, res, false)
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
	clustered := radix.PermuteInto(make([]OID, len(keys)), keys, oids, o, offs)
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

// TestCompressedDecodesEachInputOnce: under Compress only a runtime u/u
// DSM post-projection run over join images decodes, as the root
// package's runtime queries do: it decodes no key column, each image it
// builds is a step of its one phase (probe-fetch-images), and it lists
// no decode phase — each partition's morsel decodes the image-order
// encodings where it fetches them, so it reads the blocks of every
// partition's range, a block straddling two partitions once for each (the small
// hierarchy gives the join at least 4 partitions, so some do). Every
// other case — the DSM post-projection method pairs u/u, c/u, s/d and
// c/d in paper mode and the non-u pairs on the runtime (handed the same
// images, they cluster per query), DSM pre-projection and the four NSM
// strategies — runs its raw phase list and reads no encoded byte.
func TestCompressedDecodesEachInputOnce(t *testing.T) {
	const pi = 2
	pr := testPair(t, workload.Params{N: 40000, Omega: pi + 1, HitRate: 1, SelLarger: 1, SelSmaller: 1, Seed: 74})
	want := expectedRows(pr, pi)
	l, s := dsmSides(pr, pi)
	li, si := l, s
	var imgBytes int64
	withJoinImages(&imgBytes, &li, &si)
	nl, ns := nsmSides(pr, pi)
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
		ph := []string{"partitioned-hash-join"}
		if lm != Unsorted {
			ph = append(ph, reorder[lm])
		}
		ph = append(ph, "fetch-larger")
		if sm == Unsorted {
			return append(ph, "fetch-smaller")
		}
		ph = append(ph, "recluster-smaller")
		for range pi {
			ph = append(ph, "fetch-clustered", "radix-decluster")
		}
		return ph
	}
	cases := []struct {
		name   string
		run    func(Config) (*Result, error)
		rows   func(*testing.T, *Result, int) map[string]int
		phases []string
	}{
		{"u/u", dsmPost(Unsorted, Unsorted), dsmResultRows, dsmPostPhases(Unsorted, Unsorted)},
		{"c/u", dsmPost(PartialCluster, Unsorted), dsmResultRows, dsmPostPhases(PartialCluster, Unsorted)},
		{"s/d", dsmPost(SortedM, Declustered), dsmResultRows, dsmPostPhases(SortedM, Declustered)},
		{"c/d", dsmPost(PartialCluster, Declustered), dsmResultRows, dsmPostPhases(PartialCluster, Declustered)},
		{"DSM-pre", func(cfg Config) (*Result, error) { return DSMPre(l, s, cfg) }, rowsResultRows,
			[]string{"stitch-wide-tuples", "partitioned-rows-join"}},
		{"NSM-pre-hash", func(cfg Config) (*Result, error) { return NSMPre(nl, ns, false, cfg) }, rowsResultRows,
			[]string{"nsm-scan-project", "rows-join"}},
		{"NSM-pre-phash", func(cfg Config) (*Result, error) { return NSMPre(nl, ns, true, cfg) }, rowsResultRows,
			[]string{"nsm-scan-project", "rows-join"}},
		{"NSM-post-decluster", func(cfg Config) (*Result, error) { return NSMPostDecluster(nl, ns, cfg) }, rowsResultRows,
			[]string{"key-extraction", "partitioned-hash-join", "partial-cluster-join-index",
				"gather-larger", "recluster-smaller", "gather-smaller", "radix-decluster-rows"}},
		{"NSM-post-jive", func(cfg Config) (*Result, error) { return NSMPostJive(nl, ns, 0, cfg) }, rowsResultRows,
			[]string{"key-extraction", "partitioned-hash-join", "sort-join-index",
				"jive-left", "jive-right", "assemble-result"}},
	}
	for _, c := range cases {
		for _, par := range []int{0, 2} {
			tag := fmt.Sprintf("%s par=%d", c.name, par)
			images := par != 0 && c.name == "u/u"
			builds := 0
			if images {
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
			}
			compareRows(t, tag, c.rows(t, res, pi), want)
			if res.Compressed != images {
				t.Errorf("%s: Compressed = %v, want %v", tag, res.Compressed, images)
			}
			if got := res.Timings.Comp.CompressedBytes; got != imgBytes {
				t.Errorf("%s: run read %d encoded bytes, want %d", tag, got, imgBytes)
			}
			// Over join images the probe and both fetches are one phase.
			phases := c.phases
			if images {
				phases = []string{"probe-fetch-images"}
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

// withEncodedJoinImages gives each side a join image that hands out
// every column raw and, where its image-order copy shrinks, encoded as
// well, whatever the plan asks for; *handed counts the encodings handed
// out.
func withEncodedJoinImages(handed *int, sides ...*DSMSide) {
	for _, s := range sides {
		oids, keys, base := s.OIDs, s.Keys, s.Cols
		s.JoinImage = func(o radix.Opts, _ bool, _ func(string, time.Time, time.Time)) (Image, error) {
			img, err := clusterImage(oids, keys, base, o)
			if err != nil {
				return Image{}, err
			}
			img.ColsEnc = make([]*compress.Encoded, len(img.Cols))
			for c, col := range img.Cols {
				e, err := compress.EncodeBest(col)
				if err != nil {
					return Image{}, err
				}
				if e.Ratio() < 1 {
					img.ColsEnc[c] = e
					*handed++
				}
			}
			return img, nil
		}
	}
}

// TestCompressOffIgnoresEncodings: a u/u run over join images that hand
// out encodings must, under the default Compress false, drop them, run
// raw and report no compressed activity; under Compress it decodes them.
func TestCompressOffIgnoresEncodings(t *testing.T) {
	const pi = 1
	pr := testPair(t, workload.Params{N: 900, Omega: 2, HitRate: 1, SelLarger: 1, SelSmaller: 1, Seed: 72})
	l, s := dsmSides(pr, pi)
	handed := 0
	withEncodedJoinImages(&handed, &l, &s)
	for _, comp := range []bool{false, true} {
		handed = 0
		res, err := DSMPost(l, s, Unsorted, Unsorted, Config{Hier: mem.Small(), Compress: comp})
		if err != nil {
			t.Fatal(err)
		}
		if handed == 0 {
			t.Fatal("the join images handed out no encoding: the test assumes they do")
		}
		if comp {
			if !res.Compressed || res.Timings.Comp.Cols != int64(handed) {
				t.Fatalf("a compressed run decoded %d of %d encodings", res.Timings.Comp.Cols, handed)
			}
		} else if res.Compressed || res.Timings.Comp != (exec.CompStats{}) {
			t.Fatalf("a raw run reports compressed execution: %+v", res.Timings.Comp)
		}
		compareRows(t, fmt.Sprintf("compress=%v", comp), dsmResultRows(t, res, pi), expectedRows(pr, pi))
		res.Release()
	}
}

// TestSideEncodingValidation: probeImages rejects a join image column
// that a plan cannot read — an encoding of the wrong length handed to a
// compressed plan, and an encoding alone (no raw column) handed to a raw
// plan, which ignores encodings.
func TestSideEncodingValidation(t *testing.T) {
	pr := testPair(t, workload.Params{N: 600, Omega: 2, HitRate: 1, SelLarger: 1, SelSmaller: 1, Seed: 73})
	l, s := dsmSides(pr, 1)
	bad, err := compress.EncodeBest(make([]int32, 17))
	if err != nil {
		t.Fatal(err)
	}
	withJoinImages(nil, &s)
	// encodedOnly hands the larger side's only column out as enc alone.
	oids, keys, base := l.OIDs, l.Keys, l.Cols
	encodedOnly := func(enc *compress.Encoded) func(radix.Opts, bool, func(string, time.Time, time.Time)) (Image, error) {
		return func(o radix.Opts, _ bool, _ func(string, time.Time, time.Time)) (Image, error) {
			img, err := clusterImage(oids, keys, base, o)
			if err != nil {
				return Image{}, err
			}
			img.Cols[0], img.ColsEnc = nil, []*compress.Encoded{enc}
			return img, nil
		}
	}
	l.JoinImage = encodedOnly(bad)
	if _, err := DSMPost(l, s, Unsorted, Unsorted, Config{Hier: mem.Small(), Compress: true}); err == nil {
		t.Fatal("mismatched image encoding accepted")
	}
	good, err := compress.EncodeBest(make([]int32, len(l.OIDs)))
	if err != nil {
		t.Fatal(err)
	}
	l.JoinImage = encodedOnly(good)
	if _, err := DSMPost(l, s, Unsorted, Unsorted, Config{Hier: mem.Small()}); err == nil {
		t.Fatal("a raw plan accepted an image column held only encoded")
	}
}
