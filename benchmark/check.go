package main

import (
	"fmt"

	"radixdecluster/internal/workload"
)

// oracle is what the benchmark knows about one relation pair without
// running the program: the seeded generator's key columns, the exact
// join cardinality, and an order-insensitive checksum of the full
// project-join result computed by a direct key lookup. Every result
// the program returns — library call, binary frames or NDJSON — is
// checked against it.
type oracle struct {
	pi           int     // payload columns projected per side
	lkeys, skeys []int32 // join-key columns, indexed by oid
	n            int     // result cardinality
	sum          uint64  // sum of rowHash over the full result
}

// newOracle generates the pair joinserve's -seed (or the library
// child) generates for the same parameters, and joins it the slow,
// obvious way.
func newOracle(n, pi int, seed uint64) (*oracle, error) {
	pr, err := workload.GenPair(workload.Params{
		N: n, Omega: pi + 1, HitRate: 1, SelLarger: 1, SelSmaller: 1, Seed: seed,
	})
	if err != nil {
		return nil, err
	}
	o := &oracle{pi: pi, lkeys: pr.Larger.Key(), skeys: pr.Smaller.Key()}
	// Hit rate 1 makes the smaller side's keys a permutation of
	// [0,N), so the join is a lookup table from key to smaller oid.
	pos := make([]int32, len(o.skeys))
	for i := range pos {
		pos[i] = -1
	}
	for oid, k := range o.skeys {
		if k < 0 || int(k) >= len(pos) || pos[k] >= 0 {
			return nil, fmt.Errorf("oracle: smaller key %d at oid %d is not unique in [0,%d)", k, oid, len(pos))
		}
		pos[k] = int32(oid)
	}
	row := make([]int32, 2*pi)
	for lo, k := range o.lkeys {
		if k < 0 || int(k) >= len(pos) || pos[k] < 0 {
			continue
		}
		o.fillRow(row, workload.OID(lo), workload.OID(pos[k]))
		o.sum += rowHash(row)
		o.n++
	}
	if o.n != pr.ExpectedMatches {
		return nil, fmt.Errorf("oracle: joined %d rows, generator expects %d", o.n, pr.ExpectedMatches)
	}
	return o, nil
}

func (o *oracle) fillRow(row []int32, lo, so workload.OID) {
	for j := 0; j < o.pi; j++ {
		row[j] = workload.PayloadValue(lo, j+1)
		row[o.pi+j] = workload.PayloadValue(so, j+1)
	}
}

// checkRow is the closed-form check of one result row: all of its
// larger-side cells name one oid, all of its smaller-side cells name
// one oid, and the two oids carry equal keys.
func (o *oracle) checkRow(row []int32) error {
	if len(row) != 2*o.pi {
		return fmt.Errorf("row has %d cells, want %d", len(row), 2*o.pi)
	}
	lo, err := sideOID(row[:o.pi], len(o.lkeys))
	if err != nil {
		return fmt.Errorf("larger side: %w", err)
	}
	so, err := sideOID(row[o.pi:], len(o.skeys))
	if err != nil {
		return fmt.Errorf("smaller side: %w", err)
	}
	if o.lkeys[lo] != o.skeys[so] {
		return fmt.Errorf("row joins larger oid %d (key %d) with smaller oid %d (key %d)",
			lo, o.lkeys[lo], so, o.skeys[so])
	}
	return nil
}

// sideOID recovers the oid one side's cells were generated from and
// verifies every cell against workload.PayloadValue.
func sideOID(cells []int32, n int) (int, error) {
	oid := (int(cells[0]) - 1) / 31
	if oid < 0 || oid >= n {
		return 0, fmt.Errorf("cell %d names oid %d outside [0,%d)", cells[0], oid, n)
	}
	for j, c := range cells {
		if want := workload.PayloadValue(workload.OID(oid), j+1); c != want {
			return 0, fmt.Errorf("column %d holds %d, oid %d generates %d", j+1, c, oid, want)
		}
	}
	return oid, nil
}

// rowHash mixes a row's cells in column order (FNV-1a over the cells,
// then a finalizer). Summed over rows it gives a checksum that does
// not depend on row order but does on which cells share a row.
func rowHash(row []int32) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range row {
		h = (h ^ uint64(uint32(c))) * 1099511628211
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return h
}

// expect is what one query shape's responses must look like. sum is
// the oracle's when every row is streamed; for a row limit the engine
// picks which rows come first, so the first fully checked response
// sets it and every later one must repeat it.
type expect struct {
	o      *oracle
	rows   int // rows streamed
	sum    uint64
	sumSet bool
}

func newExpect(o *oracle, rows int) *expect {
	e := &expect{o: o, rows: rows}
	if rows == o.n {
		e.sum, e.sumSet = o.sum, true
	}
	if rows == 0 {
		e.sumSet = true
	}
	return e
}

// rowCheck accumulates one response's rows.
type rowCheck struct {
	e    *expect
	full bool
	rows int
	sum  uint64
}

func (rc *rowCheck) add(row []int32) error {
	rc.rows++
	rc.sum += rowHash(row)
	if rc.full {
		if err := rc.e.o.checkRow(row); err != nil {
			return fmt.Errorf("row %d: %w", rc.rows-1, err)
		}
	}
	return nil
}

// finish compares the response's totals with the expectation. Only a
// fully checked response may set a not-yet-known checksum.
func (rc *rowCheck) finish(headerN int) error {
	if headerN != rc.e.o.n {
		return fmt.Errorf("result cardinality %d, oracle joins %d", headerN, rc.e.o.n)
	}
	if rc.rows != rc.e.rows {
		return fmt.Errorf("%d rows streamed, want %d", rc.rows, rc.e.rows)
	}
	if !rc.e.sumSet {
		if !rc.full {
			return fmt.Errorf("checksum not yet established by a full check")
		}
		rc.e.sum, rc.e.sumSet = rc.sum, true
	}
	if rc.sum != rc.e.sum {
		return fmt.Errorf("row checksum %#x, want %#x", rc.sum, rc.e.sum)
	}
	return nil
}
