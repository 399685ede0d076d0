// Package nsm implements the N-ary Storage Model substrate: relations
// whose tuples are stored contiguously, one record after another.
//
// The paper "simulates" NSM inside MonetDB by introducing atomic
// record types that hold 1, 4, 16, 64 and 256 integer column values,
// "which are copied and projected from using a NSM projection routine
// that iterates over such a record and copies selected values out of
// it" (§4). This package is the same device in Go: a Relation is a
// single flat []int32 in row-major order; record i occupies
// Data[i*Width : (i+1)*Width], and projection routines walk records
// extracting the requested attribute offsets — the tuple-at-a-time
// code shape whose extra degrees of freedom (the attribute list is
// run-time data) the paper contrasts with MonetDB's hard-coded
// column-at-a-time loops.
package nsm

import "fmt"

// Relation is an NSM relation of fixed-width all-integer records.
// Width is the paper's ω — the number of attributes per tuple.
type Relation struct {
	Name  string
	Width int
	Data  []int32 // row-major: len = N*Width
}

// New allocates an NSM relation with n zeroed records of the given width.
func New(name string, n, width int) *Relation {
	return &Relation{Name: name, Width: width, Data: make([]int32, n*width)}
}

// FromColumns builds an NSM relation from column slices (the inverse
// of a DSM decomposition); all columns must have equal length.
func FromColumns(name string, cols ...[]int32) (*Relation, error) {
	if len(cols) == 0 {
		return nil, fmt.Errorf("nsm: relation %q needs at least one column", name)
	}
	n := len(cols[0])
	for i, c := range cols {
		if len(c) != n {
			return nil, fmt.Errorf("nsm: relation %q: column %d has %d values, want %d", name, i, len(c), n)
		}
	}
	r := New(name, n, len(cols))
	for i := 0; i < n; i++ {
		rec := r.Record(i)
		for j, c := range cols {
			rec[j] = c[i]
		}
	}
	return r, nil
}

// Len returns the number of records.
func (r *Relation) Len() int {
	if r.Width == 0 {
		return 0
	}
	return len(r.Data) / r.Width
}

// Record returns record i as a mutable slice view.
func (r *Relation) Record(i int) []int32 {
	return r.Data[i*r.Width : (i+1)*r.Width]
}

// At returns attribute j of record i.
func (r *Relation) At(i, j int) int32 { return r.Data[i*r.Width+j] }

// Set stores attribute j of record i.
func (r *Relation) Set(i, j int, v int32) { r.Data[i*r.Width+j] = v }

// TupleBytes returns the record width in bytes (the paper's T; the
// quadratic scalability bound of Radix-Decluster and Jive-Join is
// O(C²/T²)).
func (r *Relation) TupleBytes() int { return 4 * r.Width }

// ScanColumnInto extracts attribute col of records [lo,hi) into
// out[lo:hi] — a strided scan over the wide records, how the NSM
// post-projection strategies obtain the join-key column before
// computing the join-index. Chunks of one scan write disjoint ranges of
// out, so the parallel executor can hand record ranges to different
// workers.
func (r *Relation) ScanColumnInto(out []int32, col, lo, hi int) {
	w := r.Width
	for i, p := lo, lo*w+col; i < hi; i, p = i+1, p+w {
		out[i] = r.Data[p]
	}
}

// ProjectRecord copies the attributes named by cols out of record i
// into dst — the paper's "NSM projection routine". dst must have
// len(cols) space.
func (r *Relation) ProjectRecord(dst []int32, i int, cols []int) {
	rec := r.Record(i)
	for k, c := range cols {
		dst[k] = rec[c]
	}
}

// ScanProjectInto projects records [lo,hi) of r into the matching
// records of out (which must be len(cols) wide and at least hi records
// long), record-at-a-time: pre-projection strategies build the wide
// tuples that travel through the join this way. Chunks of one scan
// write disjoint record ranges of out.
func (r *Relation) ScanProjectInto(out *Relation, lo, hi int, cols []int) {
	for i := lo; i < hi; i++ {
		r.ProjectRecord(out.Record(i), i, cols)
	}
}

// GatherProjectInto fetches the attributes named by cols from the
// records selected by oids and writes them into a row-major buffer of
// dstWidth-wide records at field offset dstOff, assembling combined
// join results in place. The NSM analogue of a Positional-Join: the
// cache lines touched still belong to the wide source records.
func (r *Relation) GatherProjectInto(dst []int32, dstWidth, dstOff int, oids []uint32, cols []int) error {
	if dstOff < 0 || dstOff+len(cols) > dstWidth {
		return fmt.Errorf("nsm: GatherProjectInto: fields [%d,%d) outside record width %d", dstOff, dstOff+len(cols), dstWidth)
	}
	if len(dst) != len(oids)*dstWidth {
		return fmt.Errorf("nsm: GatherProjectInto: dst holds %d records, want %d", len(dst)/dstWidth, len(oids))
	}
	for i, o := range oids {
		r.ProjectRecord(dst[i*dstWidth+dstOff:i*dstWidth+dstOff+len(cols)], int(o), cols)
	}
	return nil
}

// AppendFieldsInto glues records [lo,hi) of a and b side by side into
// the matching records of out (of width a.Width+b.Width), assembling
// the final NSM join result from the two projection halves; the caller
// checks that a and b have equal cardinality. Chunks of one assembly
// write disjoint record ranges of out.
func AppendFieldsInto(out, a, b *Relation, lo, hi int) {
	for i := lo; i < hi; i++ {
		rec := out.Record(i)
		copy(rec, a.Record(i))
		copy(rec[a.Width:], b.Record(i))
	}
}
