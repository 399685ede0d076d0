package strategy

import (
	"fmt"
	"testing"

	"radixdecluster/internal/compress"
	"radixdecluster/internal/mem"
	"radixdecluster/internal/workload"
)

// encodeSides populates compressed images on every side, failing on
// encode errors.
func encodeSides(t *testing.T, l, s *DSMSide) {
	t.Helper()
	if err := l.Encode(compress.EncodeBest); err != nil {
		t.Fatal(err)
	}
	if err := s.Encode(compress.EncodeBest); err != nil {
		t.Fatal(err)
	}
}

func encodeNSMSides(t *testing.T, l, s *NSMSide) {
	t.Helper()
	if err := l.Encode(compress.EncodeBest); err != nil {
		t.Fatal(err)
	}
	if err := s.Encode(compress.EncodeBest); err != nil {
		t.Fatal(err)
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
		for _, sm := range []ProjMethod{Unsorted, Declustered} {
			res, err := DSMPost(l, s, PartialCluster, sm, cfg)
			if err != nil {
				t.Fatalf("mode=%v DSMPost c/%c: %v", mode, sm, err)
			}
			compareRows(t, fmt.Sprintf("mode=%v DSMPost c/%c", mode, sm), dsmResultRows(t, res, pi), want)
			if mode == CompressOn {
				if !res.Compressed {
					t.Fatalf("DSMPost c/%c: CompressOn run not marked compressed", sm)
				}
				if res.Timings.Comp.Cols == 0 {
					t.Fatalf("DSMPost c/%c: no compressed columns consumed", sm)
				}
				if res.Timings.Comp.SavedBytes <= 0 {
					t.Fatalf("DSMPost c/%c: SavedBytes = %d", sm, res.Timings.Comp.SavedBytes)
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
