package strategy

import (
	"fmt"
	"slices"
	"testing"

	"radixdecluster/internal/compress"
	"radixdecluster/internal/exec"
	"radixdecluster/internal/mem"
	"radixdecluster/internal/obs"
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

// phaseNames lists the pipeline phases a traced run executed, in order.
func phaseNames(tr *obs.Trace) []string {
	var out []string
	for _, ev := range tr.Events() {
		if ev.TID == tracePipelineTrack && ev.Name != "admission" {
			out = append(out, ev.Name)
		}
	}
	return out
}

// tracePipelineTrack is the trace track exec's pipeline writes phase
// spans on.
const tracePipelineTrack = 1000

// TestCompressedDecodesEachInputOnce: a compressed plan is the raw plan
// with a decode phase right before the first phase that reads each
// encoded input, so a run reads every encoding it uses exactly once —
// the encoded bytes a serial run consumes are the encodings' own size
// (a parallel run's decode chunks re-read the blocks straddling their
// borders, at most 2×). Per-tuple decoding inside the fetch and gather
// operators once read a u side hundreds of times over. Covered: the
// DSM post-projection method pairs u/u, c/u, s/d and c/d, DSM
// pre-projection, and the four NSM strategies, each with its phase list.
func TestCompressedDecodesEachInputOnce(t *testing.T) {
	const pi = 2
	pr := testPair(t, workload.Params{N: 40000, Omega: pi + 1, HitRate: 1, SelLarger: 1, SelSmaller: 1, Seed: 74})
	want := expectedRows(pr, pi)
	l, s := dsmSides(pr, pi)
	encodeSides(t, &l, &s)
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
		return func(cfg Config) (*Result, error) { return DSMPost(l, s, lm, sm, cfg) }
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
			tr := obs.NewTrace(tag)
			res, err := c.run(Config{Compress: true, Parallelism: par, Trace: tr})
			if err != nil {
				t.Fatalf("%s: %v", tag, err)
			}
			compareRows(t, tag, c.rows(t, res, pi), want)
			if got := res.Timings.Comp.CompressedBytes; got < c.bytes || got > 2*c.bytes || (par == 0 && got != c.bytes) {
				t.Errorf("%s: run read %d encoded bytes, want each encoding once = %d", tag, got, c.bytes)
			}
			if got := phaseNames(tr); !slices.Equal(got, c.phases) {
				t.Errorf("%s: phases\n got  %v\n want %v", tag, got, c.phases)
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
