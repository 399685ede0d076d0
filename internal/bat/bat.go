// Package bat implements the DSM (Decomposition Storage Model)
// substrate of the reproduction: Binary Association Tables.
//
// In MonetDB — the paper's experimentation platform — every relational
// column is stored as a separate [void,value] BAT: the head is a
// "void" (virtual-oid) column, a densely ascending oid sequence
// (0,1,2,...) that takes no physical storage, and the tail holds the
// values as a contiguous array. An oid is a plain integer starting at
// 0 for the first entry, so a Positional-Join equals array lookup
// (paper §3). Intermediate results such as join-indices are [oid,oid]
// BATs with two materialised columns.
//
// This package keeps the same model with Go slices: a Column is the
// tail array of a [void,value] BAT, and an []OID is the tail of a
// [void,oid] BAT. A join-index is two such tails of equal length
// (join.Index). The mark() operator of the paper — replace the head of
// a BAT by a fresh densely ascending oid sequence — is free: void heads
// are virtual, so a marked column is the tail slice itself, and Dense
// materialises a void head for the operators that read one.
package bat

import (
	"fmt"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
)

// OID is a MonetDB object identifier: a dense integer record number
// in [0,N). The paper's relations reach 16M tuples; 32 bits suffice
// and keep join-indices half the size of int64, which matters for the
// cache behaviour this repository studies.
type OID = uint32

// Column is the tail of a [void,value] BAT holding 4-byte integer
// values, the column type of all the paper's experiments. Values is
// addressable by position: Values[oid] is the attribute value of the
// tuple with that oid.
type Column struct {
	Name   string
	Values []int32
}

// NewColumn wraps values (not copied) as a named column.
func NewColumn(name string, values []int32) *Column {
	return &Column{Name: name, Values: values}
}

// Len returns the number of tuples.
func (c *Column) Len() int { return len(c.Values) }

// denseSlab backs Dense: one process-wide materialisation of the void
// head, replaced by a longer one when a caller asks past its end.
var denseSlab struct {
	grow sync.Mutex
	oids atomic.Pointer[[]OID]
}

// Dense returns the void head of an n-tuple BAT materialised: the
// densely ascending oids 0,1,...,n-1, for operators that want the
// virtual column as an array (a join input's oid column, the result
// positions a re-clustering carries). Every caller gets a view of the
// same process-wide slab, so the slice is READ-ONLY — a write would
// renumber every concurrent query's tuples. The slab grows on demand
// into a fresh array (earlier views stay valid) and views are capped at
// n, so an append copies instead of spilling into the slab. It never
// shrinks: the process retains 4 bytes per tuple of the largest side it
// has served, rounded up to a power of two (docs/OPERATIONS.md).
func Dense(n int) []OID {
	if n == 0 {
		return []OID{}
	}
	if s := denseSlab.oids.Load(); s != nil && len(*s) >= n {
		return (*s)[:n:n]
	}
	denseSlab.grow.Lock()
	defer denseSlab.grow.Unlock()
	var old []OID
	if s := denseSlab.oids.Load(); s != nil {
		old = *s
	}
	if len(old) >= n {
		return old[:n:n]
	}
	// Power-of-two lengths: relations of similar size share one growth.
	s := make([]OID, 1<<bits.Len(uint(n-1)))
	for i := copy(s, old); i < len(s); i++ {
		s[i] = OID(i)
	}
	denseSlab.oids.Store(&s)
	return s[:n:n]
}

// IsPermutation reports whether oids is a permutation of [0,len).
// Radix-Decluster's correctness rests on this property of
// CLUST_RESULT (paper §3.2, property 1).
func IsPermutation(oids []OID) bool {
	n := len(oids)
	seen := make([]bool, n)
	for _, o := range oids {
		if int(o) >= n || seen[o] {
			return false
		}
		seen[o] = true
	}
	return true
}

// SortedWithin reports whether oids are ascending inside every
// [start,end) range of borders — property 2 of §3.2: Radix-Cluster
// locally respects input order, so a clustered dense column is sorted
// within each cluster.
func SortedWithin(oids []OID, borders []Border) bool {
	for _, b := range borders {
		seg := oids[b.Start:b.End]
		if !sort.SliceIsSorted(seg, func(i, j int) bool { return seg[i] < seg[j] }) {
			return false
		}
	}
	return true
}

// Border delimits one cluster as a half-open [Start,End) range into a
// clustered column. The radix_count operator of Figure 4 produces
// these (CLUST_BORDERS).
type Border struct {
	Start, End int
}

// Size returns the number of tuples in the cluster.
func (b Border) Size() int { return b.End - b.Start }

// ValidateBorders checks that borders tile [0,n) contiguously.
func ValidateBorders(borders []Border, n int) error {
	pos := 0
	for i, b := range borders {
		if b.Start != pos {
			return fmt.Errorf("bat: border %d starts at %d, want %d", i, b.Start, pos)
		}
		if b.End < b.Start {
			return fmt.Errorf("bat: border %d has negative size", i)
		}
		pos = b.End
	}
	if pos != n {
		return fmt.Errorf("bat: borders cover [0,%d), want [0,%d)", pos, n)
	}
	return nil
}

// BordersFromOffsets converts H+1 cluster offsets into H borders.
func BordersFromOffsets(offsets []int) []Border {
	if len(offsets) == 0 {
		return nil
	}
	out := make([]Border, len(offsets)-1)
	for i := range out {
		out[i] = Border{Start: offsets[i], End: offsets[i+1]}
	}
	return out
}

// VarColumn stores a variable-width (string-like) column the MonetDB
// way (paper §3 footnote 3): the positional array holds integer byte
// offsets into a separate heap buffer. Entry i occupies
// Heap[Offsets[i]:Offsets[i+1]].
type VarColumn struct {
	Name    string
	Offsets []uint32 // len = N+1
	Heap    []byte
}

// NewVarColumn builds a VarColumn from a slice of strings.
func NewVarColumn(name string, vals []string) *VarColumn {
	c := &VarColumn{Name: name, Offsets: make([]uint32, 1, len(vals)+1)}
	for _, v := range vals {
		c.Heap = append(c.Heap, v...)
		c.Offsets = append(c.Offsets, uint32(len(c.Heap)))
	}
	return c
}

// Len returns the number of entries.
func (c *VarColumn) Len() int { return len(c.Offsets) - 1 }

// At returns entry o as a byte slice view into the heap.
func (c *VarColumn) At(o OID) []byte { return c.Heap[c.Offsets[o]:c.Offsets[o+1]] }

// Size returns the byte length of entry o.
func (c *VarColumn) Size(o OID) int { return int(c.Offsets[o+1] - c.Offsets[o]) }
