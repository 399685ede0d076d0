package strategy

import (
	"fmt"
	"testing"

	"radixdecluster/internal/compress"
	"radixdecluster/internal/mem"
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

// TestCompressedStrategiesMatchRaw pins the tentpole contract: every
// strategy produces the identical join whether it executes over raw
// arrays or block-compressed images (CompressOn forces the compressed
// paths; the workload's dense-oid payloads compress well, so the run
// must actually consume compressed columns).
func TestCompressedStrategiesMatchRaw(t *testing.T) {
	const pi = 2
	pr := testPair(t, workload.Params{N: 1500, Omega: pi + 1, HitRate: 1, SelLarger: 1, SelSmaller: 1, Seed: 71})
	want := expectedRows(pr, pi)
	for _, mode := range []CompressMode{CompressOn, CompressAuto} {
		cfg := Config{Hier: mem.Small(), Compress: mode}
		l, s := dsmSides(pr, pi)
		encodeSides(t, &l, &s)
		for _, m := range [][2]ProjMethod{{PartialCluster, Unsorted}, {PartialCluster, Declustered}, {Unsorted, Unsorted}} {
			tag := fmt.Sprintf("mode=%v DSMPost %c/%c", mode, m[0], m[1])
			res, err := DSMPost(l, s, m[0], m[1], cfg)
			if err != nil {
				t.Fatalf("%s: %v", tag, err)
			}
			compareRows(t, tag, dsmResultRows(t, res, pi), want)
			if mode == CompressOn {
				if !res.Compressed {
					t.Fatalf("%s: CompressOn run not marked compressed", tag)
				}
				if res.Timings.Comp.Cols == 0 {
					t.Fatalf("%s: no compressed columns consumed", tag)
				}
				if res.Timings.Comp.SavedBytes <= 0 {
					t.Fatalf("%s: SavedBytes = %d", tag, res.Timings.Comp.SavedBytes)
				}
			}
		}
		if res, err := DSMPre(l, s, cfg); err != nil {
			t.Fatalf("mode=%v DSMPre: %v", mode, err)
		} else {
			compareRows(t, fmt.Sprintf("mode=%v DSMPre", mode), rowsResultRows(t, res, pi), want)
			if mode == CompressOn && res.Timings.Comp.Cols == 0 {
				t.Fatal("DSMPre: no compressed columns consumed")
			}
		}
		nl, ns := nsmSides(pr, pi)
		encodeNSMSides(t, &nl, &ns)
		for _, partitioned := range []bool{false, true} {
			if res, err := NSMPre(nl, ns, partitioned, cfg); err != nil {
				t.Fatalf("mode=%v NSMPre part=%v: %v", mode, partitioned, err)
			} else {
				compareRows(t, fmt.Sprintf("mode=%v NSMPre part=%v", mode, partitioned), rowsResultRows(t, res, pi), want)
			}
		}
		if res, err := NSMPostDecluster(nl, ns, cfg); err != nil {
			t.Fatalf("mode=%v NSMPostDecluster: %v", mode, err)
		} else {
			compareRows(t, fmt.Sprintf("mode=%v NSMPostDecluster", mode), rowsResultRows(t, res, pi), want)
			if mode == CompressOn && nl.Enc != nil && res.Timings.Comp.Cols == 0 {
				t.Fatal("NSMPostDecluster: no compressed columns consumed")
			}
		}
		if res, err := NSMPostJive(nl, ns, 0, cfg); err != nil {
			t.Fatalf("mode=%v NSMPostJive: %v", mode, err)
		} else {
			compareRows(t, fmt.Sprintf("mode=%v NSMPostJive", mode), rowsResultRows(t, res, pi), want)
		}
	}
}

// TestUnsortedCompressedDecodesOnce: an unsorted fetch over an encoded
// column used to decode a block per tuple — the oids of a join-index in
// join order span the whole column, so the block cache missed on nearly
// every fetch. A compressed plan now materialises a u side's columns in
// one scan-shaped pass, so the run reads each encoding exactly once:
// the encoded bytes it consumed are the encodings' own size.
func TestUnsortedCompressedDecodesOnce(t *testing.T) {
	const pi = 2
	pr := testPair(t, workload.Params{N: 40000, Omega: pi + 1, HitRate: 1, SelLarger: 1, SelSmaller: 1, Seed: 74})
	l, s := dsmSides(pr, pi)
	encodeSides(t, &l, &s)
	var encoded int64
	for _, e := range append(l.encs(), s.encs()...) {
		if e != nil {
			encoded += int64(e.CompressedBytes())
		}
	}
	if encoded == 0 {
		t.Fatal("workload did not compress: the test observes nothing")
	}
	for _, par := range []int{0, 2} {
		res, err := DSMPost(l, s, Unsorted, Unsorted, Config{Compress: CompressOn, Parallelism: par})
		if err != nil {
			t.Fatal(err)
		}
		compareRows(t, fmt.Sprintf("u/u compressed par=%d", par), dsmResultRows(t, res, pi), expectedRows(pr, pi))
		// Parallel decode passes re-read the blocks that straddle their
		// chunk borders; per-tuple decoding read hundreds of times more.
		if got := res.Timings.Comp.CompressedBytes; got < encoded || got > 2*encoded || (par == 0 && got != encoded) {
			t.Errorf("par=%d: run read %d encoded bytes, want each encoding once = %d", par, got, encoded)
		}
		res.Release()
	}
}

// TestCompressOffIgnoresEncodings: encoded sides with the default mode
// must run raw and report no compressed activity.
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
		t.Fatalf("CompressOff run reports compressed execution: %+v", res.Timings.Comp)
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
