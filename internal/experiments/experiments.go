// Package experiments regenerates every table and figure of the
// paper's evaluation (§4). Each Fig* runner produces a Table whose
// rows are the same series the paper plots:
//
//	Fig7a  Radix-Decluster events & time vs insertion-window size
//	Fig7b  Decluster strategy components vs radix bits
//	Fig8   DSM post-projection strategies (u/s/c/d) vs π
//	Fig9   modeled vs measured per operator vs radix bits (a–f)
//	Fig10a overall strategies vs projectivity π
//	Fig10b overall strategies vs join hit rate h
//	Fig10c overall strategies vs cardinality N
//	Fig11  sparse clustered Positional-Join vs selectivity
//	Fig12  variable-size Radix-Decluster into buffer pages
//	Calib  calibrated vs specified hierarchy parameters (§4 preamble)
//
// Scale: the paper's largest runs use 8M/16M tuples on a 2004
// Pentium 4. Default cardinalities here are scaled down so the whole
// suite runs in minutes on one CPU; Config.Full restores paper scale.
package experiments

import (
	"fmt"
	"io"
	"strings"
	"time"

	"radixdecluster/internal/bat"
	"radixdecluster/internal/join"
	"radixdecluster/internal/mem"
	"radixdecluster/internal/radix"
	"radixdecluster/internal/strategy"
	"radixdecluster/internal/workload"
)

// OID mirrors bat.OID.
type OID = bat.OID

// Config scales and seeds an experiment run.
type Config struct {
	// Hier is the hierarchy driving planners, models and simulation
	// (default: the paper's Pentium 4).
	Hier mem.Hierarchy
	// Full restores the paper's cardinalities (minutes to hours);
	// default is a scaled-down run.
	Full bool
	// Quick shrinks cardinalities a further ~16x for tests and smoke
	// runs (seconds).
	Quick bool
	// Seed for workload generation.
	Seed uint64
	// Parallelism runs every strategy on the morsel-driven parallel
	// executor (internal/exec): 0 = the paper's serial mode, n >= 1 =
	// a nominal n workers leased from the process default runtime
	// (strategy.DefaultRuntime), -1 = the planner decides per strategy.
	// Results are byte-identical either way; only the measured times
	// change.
	Parallelism int
}

// strategyConfig builds the strategy.Config all end-to-end strategy
// runs share.
func (c Config) strategyConfig() strategy.Config {
	return strategy.Config{Hier: c.hier(), Parallelism: c.Parallelism}
}

func (c Config) hier() mem.Hierarchy {
	if len(c.Hier.Levels) == 0 {
		return mem.Pentium4()
	}
	return c.Hier
}

// scale picks a cardinality: full paper scale, the scaled default, or
// a 16x-smaller quick size for tests.
func (c Config) scale(def, full int) int {
	if c.Full {
		return full
	}
	if c.Quick {
		q := def / 16
		if q < 4096 {
			q = 4096
		}
		return q
	}
	return def
}

// Table is one regenerated figure: ordered columns, formatted rows.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// Append adds a row of values formatted with %v-ish defaults.
func (t *Table) Append(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.3f", v)
		case time.Duration:
			row[i] = fmt.Sprintf("%.3f", float64(v.Nanoseconds())/1e6)
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.Rows = append(t.Rows, row)
}

// Fprint renders the table with aligned columns.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	head := make([]string, len(t.Columns))
	for i, c := range t.Columns {
		head[i] = pad(c, widths[i])
	}
	fmt.Fprintln(w, strings.Join(head, "  "))
	for _, r := range t.Rows {
		cells := make([]string, len(r))
		for i, c := range r {
			cells[i] = pad(c, widths[i])
		}
		fmt.Fprintln(w, strings.Join(cells, "  "))
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// Fcsv renders the table as CSV (header row + data rows), for
// downstream plotting.
func (t *Table) Fcsv(w io.Writer) {
	fmt.Fprintln(w, strings.Join(t.Columns, ","))
	for _, r := range t.Rows {
		fmt.Fprintln(w, strings.Join(r, ","))
	}
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// timeIt measures one execution of f in milliseconds.
func timeIt(f func()) float64 {
	start := time.Now()
	f()
	return float64(time.Since(start).Nanoseconds()) / 1e6
}

// makeJoinIndex builds a realistic join-index of ~n entries whose
// oids point into base tables of the given sizes: the output of a
// Partitioned Hash-Join at hit rate 1 — neither side ordered.
func makeJoinIndex(n int, seed uint64, h mem.Hierarchy) (*join.Index, error) {
	pr, err := workload.GenPair(workload.Params{
		N: n, Omega: 1, HitRate: 1, SelLarger: 1, SelSmaller: 1, Seed: seed,
	})
	if err != nil {
		return nil, err
	}
	return joinPair(pr, h)
}

// joinPair runs the Partitioned Hash-Join of a workload pair's selected
// tuples on the bits join.PlanBits picks for h, into fresh buffers.
func joinPair(pr *workload.Pair, h mem.Hierarchy) (*join.Index, error) {
	b := join.PlanBits(pr.Smaller.N(), 4, h.LLC().Size)
	o := radix.Opts{Bits: b, Passes: radix.SplitBits(b, radix.MaxBitsPerPass(h))}
	cl, err := clusterBUNs(pr.Larger.SelOIDs, pr.Larger.SelKeys, o)
	if err != nil {
		return nil, err
	}
	cs, err := clusterBUNs(pr.Smaller.SelOIDs, pr.Smaller.SelKeys, o)
	if err != nil {
		return nil, err
	}
	ix := &join.Index{Larger: make([]OID, 0, len(cl.BUNs)), Smaller: make([]OID, 0, len(cl.BUNs))}
	ts := tableFor(cs.Offsets)
	return ix, join.PartitionedPreclusteredInto(ix, &ts, cl, cs, uint(o.Ignore+o.Bits))
}

// clusterBUNs radix-clusters a join input into fresh ping-pong buffers.
func clusterBUNs(oids []OID, keys []int32, o radix.Opts) (*radix.BUNsResult, error) {
	return radix.ClusterBUNsInto([2][]uint64{make([]uint64, len(keys)), make([]uint64, len(keys))}, oids, keys, o)
}

// tableFor is a hash-table scratch sized for the largest partition of
// offsets, so the probes over them allocate no table.
func tableFor(offsets []int) join.TableScratch {
	m := 0
	for p := 0; p+1 < len(offsets); p++ {
		m = max(m, offsets[p+1]-offsets[p])
	}
	return join.TableScratchOver(make([]int32, join.TableBuckets(m)), make([]int32, m))
}

// Runner is a named experiment.
type Runner struct {
	ID   string
	Desc string
	Run  func(Config) (*Table, error)
}

// All lists every experiment in paper order.
func All() []Runner {
	return []Runner{
		{"fig7a", "Radix-Decluster misses & time vs insertion-window size", Fig7a},
		{"fig7b", "decluster strategy components vs radix bits", Fig7b},
		{"fig8", "DSM post-projection strategies vs projectivity", Fig8},
		{"fig9a", "Radix-Cluster modeled vs measured", Fig9a},
		{"fig9b", "Partitioned Hash-Join modeled vs measured", Fig9b},
		{"fig9c", "Clustered Positional-Join modeled vs measured", Fig9c},
		{"fig9d", "Radix-Decluster modeled vs measured", Fig9d},
		{"fig9e", "Left Jive-Join modeled vs measured", Fig9e},
		{"fig9f", "Right Jive-Join modeled vs measured", Fig9f},
		{"fig10a", "overall join strategies vs projectivity", Fig10a},
		{"fig10b", "overall join strategies vs hit rate", Fig10b},
		{"fig10c", "overall join strategies vs cardinality", Fig10c},
		{"fig11", "sparse clustered Positional-Join vs selectivity", Fig11},
		{"fig12", "variable-size Radix-Decluster into buffer pages", Fig12},
		{"calib", "calibrated vs specified hierarchy parameters", Calib},
		{"ablation", "Radix-Decluster vs pure scatter vs pure merge", Ablation},
	}
}

// ByID returns the runner with the given id.
func ByID(id string) (Runner, error) {
	for _, r := range All() {
		if r.ID == id {
			return r, nil
		}
	}
	return Runner{}, fmt.Errorf("experiments: unknown experiment %q", id)
}
