package radixdecluster

import (
	"radixdecluster/internal/bat"
	"radixdecluster/internal/buffer"
	"radixdecluster/internal/core"
	"radixdecluster/internal/posjoin"
	"radixdecluster/internal/radix"
)

// Cluster is one cluster extent in a clustered column: the half-open
// range [Start,End).
type Cluster struct {
	Start, End int
}

func toBorders(cl []Cluster) []bat.Border {
	out := make([]bat.Border, len(cl))
	for i, c := range cl {
		out[i] = bat.Border{Start: c.Start, End: c.End}
	}
	return out
}

func fromBorders(b []bat.Border) []Cluster {
	out := make([]Cluster, len(b))
	for i, c := range b {
		out[i] = Cluster{Start: c.Start, End: c.End}
	}
	return out
}

// Clustered bundles the views Radix-Decluster consumes (Figure 4):
// the oids to fetch with in clustered order, each fetched tuple's
// final result position, and the cluster extents.
type Clustered struct {
	OIDs      []OID
	ResultPos []OID
	Clusters  []Cluster
	Bits      int
	Ignore    int
}

// ClusterOIDs partially radix-clusters an oid column (e.g. one side
// of a join-index) on bits [ignore, ignore+bits) — §3.1's partial
// Radix-Cluster. It returns the views needed both for clustered
// Positional-Joins and for a later Decluster.
func ClusterOIDs(oids []OID, bits, ignore int) (*Clustered, error) {
	cl, err := core.ClusterForDecluster(oids, radix.Opts{Bits: bits, Ignore: ignore})
	if err != nil {
		return nil, err
	}
	return &Clustered{
		OIDs:      cl.SmallerOIDs,
		ResultPos: cl.ResultPos,
		Clusters:  fromBorders(cl.Borders),
		Bits:      bits,
		Ignore:    ignore,
	}, nil
}

// Decluster is the paper's core algorithm (Figure 6): values arrive
// in clustered order, ids give each tuple's final result position
// (ascending within every cluster, a permutation overall), and
// windowTuples bounds the random-access insertion window. It returns
// the values in result order. Use PlanWindowTuples for the window.
func Decluster[T any](values []T, ids []OID, clusters []Cluster, windowTuples int) ([]T, error) {
	return core.Decluster(values, ids, toBorders(clusters), windowTuples)
}

// Fetch is a Positional-Join: out[i] = col[oids[i]]. With clustered
// oids each stretch of accesses stays inside one cache-sized region
// of col.
func Fetch(col []int32, oids []OID) ([]int32, error) {
	out := make([]int32, len(oids))
	if err := posjoin.FetchInto(out, col, oids); err != nil {
		return nil, err
	}
	return out, nil
}

// SortOIDs radix-sorts an [oid,payload] pair on the oid column
// (§3.1: Radix-Cluster on all significant bits of a dense domain is
// Radix-Sort). Returns the sorted oids and the payload permuted
// alongside.
func SortOIDs(oids, payload []OID, h Hierarchy) (sortedOIDs, sortedPayload []OID, err error) {
	res, err := radix.SortOIDPairs(oids, payload, h.internal())
	if err != nil {
		return nil, nil, err
	}
	return res.Key, res.Other, nil
}

// PlanWindowTuples returns the insertion-window size in tuples for
// elements of elemBytes on the hierarchy (Figure 6: half the
// last-level cache).
func PlanWindowTuples(h Hierarchy, elemBytes int) int {
	return core.PlanWindow(h.internal(), elemBytes)
}

// PlanClusterBits returns B such that one cluster's span of a
// colLen×widthBytes column fits the last-level cache (§3.1), and the
// ignore count for a join-index over a domain of colLen oids.
func PlanClusterBits(h Hierarchy, colLen, widthBytes int) (bits, ignore int) {
	hh := h.internal()
	bits = radix.OptimalBits(colLen, widthBytes, hh.LLC().Size)
	ignore = radix.IgnoreBits(colLen, bits)
	return bits, ignore
}

// DeclusterLimit is the §6 scalability bound: the largest relation
// Radix-Decluster handles efficiently, C²/(32·width²).
func DeclusterLimit(h Hierarchy, widthBytes int) int {
	return core.ScalabilityLimit(h.internal(), widthBytes)
}

// PagedColumn is a variable-width result column stored in slotted
// buffer-manager pages (§5, Figure 12).
type PagedColumn struct {
	pool *buffer.Pool
}

// Len returns the record count.
func (p *PagedColumn) Len() int { return p.pool.NumRecords() }

// Pages returns the page count.
func (p *PagedColumn) Pages() int { return p.pool.NumPages() }

// At returns record i (result order) as a string.
func (p *PagedColumn) At(i int) (string, error) {
	b, err := p.pool.Record(i)
	if err != nil {
		return "", err
	}
	return string(b), nil
}

// DeclusterStrings runs the Figure-12 three-phase variable-size
// Radix-Decluster: values (in clustered order) land in result order
// across pageSize-byte slotted pages — the path a page-based NSM
// RDBMS with projection indices would use (§5).
func DeclusterStrings(values []string, ids []OID, clusters []Cluster, windowTuples, pageSize int) (*PagedColumn, error) {
	col := bat.NewVarColumn("values", values)
	pool, err := buffer.DeclusterVarsize(col, ids, toBorders(clusters), windowTuples, pageSize)
	if err != nil {
		return nil, err
	}
	return &PagedColumn{pool: pool}, nil
}
